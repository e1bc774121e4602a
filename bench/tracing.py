"""Per-layer tracing from outside the program.

Wrappers are installed on the public names of the library's modules, in
every module namespace that holds them (functions imported by name, such
as `stencil_norm` inside `refine`, are replaced there too), and on the class
methods of `LaurentPoly`, `SymbolMatrix` and `LimitSample`.  Each call
records a span (name, start, end, parent, job) in memory; self time is a
span's duration minus what its direct children cover.  Work counts use
only public accessors (`support`, `coefficient`, indexing), so they survive
a change of representation.  Time spent computing counts is recorded as a
`trace.count` span so it is charged to no layer.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _width(support) -> int:
    return 0 if support is None else support[1] - support[0] + 1


def _term_pairs(args, result) -> int:
    return _width(args[0].support) * _width(args[1].support)


def _symbol_terms(args, result) -> int:
    sym = args[0]
    return sum(_width(sym[i, j].support) for i in range(sym.p) for j in range(sym.p))


def _out_entries(args, result) -> int:
    return _width(result.support) * result.p


def _max_coeff_bits(args, result) -> int:
    support = result.support
    if support is None:
        return 0
    best = 0
    for i in range(support[0], support[1] + 1):
        m = result.coefficient(i)
        for r in range(m.rows):
            for c in range(m.cols):
                x = m[r, c]
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


# layer name -> (module, attribute paths, {stat: (counter, "sum" | "max")})
LAYERS = {
    "laurent.poly_mul": ("laurent", ("LaurentPoly.__mul__",),
                         {"term_pairs": (_term_pairs, "sum")}),
    "laurent.poly_add": ("laurent", ("LaurentPoly.__add__",), {}),
    "laurent.symbol_mul": ("laurent", ("SymbolMatrix.__mul__",), {}),
    "laurent.dilate": ("laurent", ("LaurentPoly.dilate",), {}),
    "laurent.divide_exact": ("laurent", ("divide_exact",), {}),
    "refine.iterated_symbol": ("refine", ("iterated_symbol",),
                               {"max_coeff_bits": (_max_coeff_bits, "max")}),
    "refine.apply": ("refine", ("apply",), {"out_entries": (_out_entries, "sum")}),
    "refine.render": ("refine", ("render",), {}),
    "refine.to_csv": ("refine", ("LimitSample.to_csv",), {}),
    "refine.certify": ("refine", ("certify_c0", "certify_vector", "certify_hermite"), {}),
    "masks.stencil_norm": ("masks", ("stencil_norm",), {"terms": (_symbol_terms, "sum")}),
    "masks.canonical_transform": ("masks", ("canonical_transform",), {}),
    "masks.conjugate": ("masks", ("conjugate",), {}),
    "masks.common_one_eigenspace": ("masks", ("common_one_eigenspace",), {}),
    "linalg.rref": ("linalg", ("rref",), {}),
    "linalg.invert": ("linalg", ("invert",), {}),
    "vector_smoothing.derived": ("vector_smoothing", ("derived",), {}),
    "vector_smoothing.smooth_raw": ("vector_smoothing", ("smooth_raw",), {}),
    "vector_smoothing.smooth_vector": ("vector_smoothing", ("smooth_vector",), {}),
    "hermite_smoothing.check_spectral": ("hermite_smoothing", ("check_spectral",), {}),
    "hermite_smoothing.taylor_scheme": ("hermite_smoothing", ("taylor_scheme",), {}),
    "hermite_smoothing.inverse_taylor": ("hermite_smoothing", ("inverse_taylor",), {}),
    "hermite_smoothing.smooth_hermite": ("hermite_smoothing", ("smooth_hermite",), {}),
    "maskfile.parse": ("maskfile", ("parse",), {}),
    "maskfile.serialize": ("maskfile", ("serialize",), {}),
    "catalog.get": ("catalog", ("get",), {}),
    "cli.main": ("cli", ("main",), {}),
}

COUNT_SPAN = "trace.count"
PACKAGE = "subsmooth"


class Tracer:
    """Installs wrappers on entry, restores the originals on exit."""

    def __init__(self):
        self.spans: list = []
        self.work: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.missing: list[str] = []
        self.job = None
        self._stack: list[int] = []
        self._restore: list = []

    # -- installation ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.spans, self._stack = [], []
        self.work.clear()
        self.missing = []
        for name, (module, paths, stats) in LAYERS.items():
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.missing.append(name)
                continue
            found = False
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    continue
                found = True
                wrapper = self._wrap(name, orig, stats)
                if owner_name:
                    self._replace(owner, attr, orig, wrapper)
                else:
                    for m in self._modules():
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                self._replace(m, key, orig, wrapper)
            if not found:
                self.missing.append(name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _replace(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def _wrap(self, name: str, fn, stats: dict):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.job)
            if stats:
                work = tracer.work[name]
                for stat, (counter, how) in stats.items():
                    n = counter(args, result)
                    work[stat] = work[stat] + n if how == "sum" else max(work[stat], n)
                tracer.spans.append((COUNT_SPAN, t1, perf_counter(), parent, tracer.job))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- reduction ----------------------------------------------------------------
    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s and work counts per layer; unreached layers read 0."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        for (name, t0, t1, _, _), covered in zip(self.spans, child_time):
            if name in out:
                out[name]["calls"] += 1
                out[name]["self_s"] += (t1 - t0) - covered
        for name, (_, _, stats) in LAYERS.items():
            for stat in stats:
                out[name][stat] = self.work[name][stat] if name in self.work else 0
        return out

    def count_overhead_s(self) -> float:
        return sum(t1 - t0 for name, t0, t1, _, _ in self.spans if name == COUNT_SPAN)
