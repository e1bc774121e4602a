"""The public surface of the package, pinned: a name added to or removed
from ``subsmooth.__all__`` must be a deliberate change of this list.  A
deletion leaves no unused import behind in ``src/`` and does not break the
README's library example."""

import ast
import contextlib
import inspect
import io
import re
from pathlib import Path

import subsmooth

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(subsmooth.__file__).resolve().parent

SURFACE = [
    "Certificate", "ConsistencyError", "DegenerateAError", "EigenspaceError",
    "Eigenstructure", "EmptyEigenspaceError", "FinSeq", "Kind", "LaurentPoly",
    "LimitSample", "Mask", "MaskFileError", "NotDivisibleError", "NotInTildeError",
    "RatMatrix", "Refusal", "SingularMatrixError", "SpectralConditionError",
    "SpectralReport", "SubsmoothError", "SymbolMatrix", "TAYLOR_OPERATOR",
    "TaylorReport", "WorkBudgetError", "ZINV2_MINUS_1", "ZINV_MINUS_1", "Z_PLUS_1",
    "apply", "canonical_transform", "catalog", "certify_hermite", "certify_vector",
    "check_interpolatory", "check_spectral", "check_taylor",
    "common_one_eigenspace", "conjugate", "derive_phi", "derived",
    "difference_operator", "divide_exact", "errors", "even_odd_mean", "hermite_mask",
    "hermite_smoothing", "intertwine", "inverse_taylor", "invert", "iterated_symbol",
    "laurent", "linalg", "maskfile", "masks", "rat", "refine",
    "render", "scalar_mask", "smooth_hermite", "smooth_raw", "smooth_vector",
    "stencil_norm", "taylor_scheme", "untwine", "vector_mask", "vector_smoothing",
    "zeta_of",
]


def test_public_surface_is_pinned():
    assert len(SURFACE) == 66
    assert sorted(subsmooth.__all__) == SURFACE


def _bound_names(tree: ast.Module):
    """(module, name) for each name an import binds, module the relative
    module it comes from ("" for a package import or an absolute one)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield "", alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = node.module if node.level else ""
            for alias in node.names:
                yield module or "", alias.asname or alias.name


def test_a_basis_change_is_one_eigenstructure_argument():
    """intertwine, untwine, derived and smooth_raw take a basis change as one
    Eigenstructure, not as a matrix and an inverse trusted to match it."""
    for fn in (subsmooth.intertwine, subsmooth.untwine, subsmooth.derived,
               subsmooth.smooth_raw):
        params = inspect.signature(fn).parameters
        assert "basis" in params and not {"r", "r_inv"} & set(params), fn.__name__


def test_no_module_in_src_has_an_unused_import():
    """Every imported name is loaded somewhere in its module, or re-exported:
    __init__ re-exports everything it imports, and a name it imports from a
    module counts as used there."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    reexported = {(module, name) for module, name in _bound_names(init)}
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused[path.name] = sorted(
            name for _, name in _bound_names(tree) if name not in loaded
            and path.name != "__init__.py" and (path.stem, name) not in reexported)
    assert unused == {name: [] for name in unused}


def test_readme_library_example_runs_as_written():
    """The python block under README "Library", run as it stands; it prints
    what its comments say."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "SpectralReport(holds=True, violated=())", "0", "14/15"]
