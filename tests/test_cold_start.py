"""What `import subsmooth.cli` loads, in a fresh interpreter as the CLI
starts: every module of the package, so no import cost waits for the first
command, and none of the standard modules that cost a cold start most and
that the library does not need."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGE_MODULES = {"subsmooth", "subsmooth.catalog", "subsmooth.cli", "subsmooth.errors",
                   "subsmooth.hermite_smoothing", "subsmooth.laurent", "subsmooth.linalg",
                   "subsmooth.maskfile", "subsmooth.masks", "subsmooth.refine",
                   "subsmooth.vector_smoothing"}
UNNEEDED = {"dataclasses", "inspect", "typing", "ast", "dis"}


def test_cli_import_loads_the_package_and_no_unneeded_stdlib_module():
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import subsmooth.cli; "
             "loaded = sorted(sys.modules); import json; print(json.dumps(loaded))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert PACKAGE_MODULES <= loaded
    assert not UNNEEDED & loaded


def test_a_cli_call_loads_no_shutil():
    """argparse's formatter imports shutil, and with it fnmatch, zlib, bz2 and
    lzma, to find the terminal width; the command line finds it itself."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from subsmooth import cli; "
             "rc = cli.main(['show', 'catalog:bspline1']); import json; "
             "print(json.dumps([rc, sorted(sys.modules)]))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    rc, loaded = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert not {"shutil", "bz2", "lzma"} & set(loaded)
