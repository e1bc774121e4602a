"""Command-line front end: subsmooth show | smooth | certify | render.

Masks are given either as file paths or as catalog references like
``catalog:merrien``.  Exit codes: 0 success / certificate granted,
2 inconclusive certification, 1 any error (bad input, a file that cannot
be read or written, violated precondition, unknown catalog entry, work over
a fixed ceiling, or an internal consistency check that failed, which is
reported as a bug).

``COMMANDS`` gives each command's handler, help and arguments as data.  A
call naming a command is parsed by that command's parser alone; the full
parser, built from the same table, serves top-level help, a missing or
unknown command and leftover arguments, so both routes agree byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog, maskfile
from .errors import ConsistencyError, SubsmoothError
from .masks import Kind, Mask, common_one_eigenspace, derive_phi, even_odd_mean
from .hermite_smoothing import (check_interpolatory, check_spectral,
                                check_taylor, smooth_hermite, zeta_of)
from .refine import (DEFAULT_LMAX, MAX_LMAX, MAX_RENDER_ROWS, MAX_ROUNDS,
                     Certificate, certify_hermite, certify_vector, render)
from .vector_smoothing import smooth_vector


def _load(ref: str) -> Mask:
    if ref.startswith("catalog:"):
        try:
            return catalog.get(ref[len("catalog:"):])
        except KeyError as exc:
            raise SubsmoothError(exc.args[0]) from None
    return maskfile.load(ref)


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_matrix(m) -> str:
    return "[" + "; ".join(map(", ".join, m._strings())) + "]"


def _fmt_vec(v) -> str:
    return "(" + ", ".join(row[0] for row in v._strings()) + ")"


def cmd_show(args) -> int:
    mask = _load(args.path)
    sym = mask.symbol
    out = [f"kind: {mask.kind.value}", f"p: {mask.p}",
           f"support: {mask.support}"]
    out.append("symbol:")
    for i in range(mask.p):
        out.append("  [" + " | ".join(str(sym[i, j]) for j in range(mask.p)) + "]")
    out.append(f"value at 1:  {_fmt_matrix(sym.evaluate(1))}")
    out.append(f"value at -1: {_fmt_matrix(sym.evaluate(-1))}")
    out.append(f"even/odd mean: {_fmt_matrix(even_odd_mean(mask))}")
    basis = common_one_eigenspace(mask)
    if basis:
        out.append("common 1-eigenspace basis: "
                   + ", ".join(_fmt_vec(v) for v in basis))
    else:
        out.append("common 1-eigenspace: trivial")
    if mask.p == 2:
        rep = check_spectral(mask)
        # derive_phi, not Mask.phi: a vector mask may meet the condition too
        out.append(f"spectral condition: {'holds' if rep.holds else 'fails'}"
                   + (f", phi = {derive_phi(sym)}" if rep.holds
                      else f", violated {list(rep.violated)}"))
        if rep.holds:
            out.append(f"interpolatory: {check_interpolatory(mask)}")
        trep = check_taylor(mask)
        out.append(f"taylor conditions: {'hold' if trep.holds_taylor else 'fail'}"
                   + (f" (eigenspace span{{e2}}: {trep.in_tilde})"
                      if trep.holds_taylor else ""))
    if mask.kind is Kind.HERMITE:
        out.append(f"phi: {mask.phi}")
    print("\n".join(out))
    return 0


def cmd_smooth(args) -> int:
    if not 1 <= args.rounds <= MAX_ROUNDS:
        raise SubsmoothError(f"--rounds must be in 1..{MAX_ROUNDS}, got {args.rounds}")
    mask = _load(args.path)
    if args.out:  # fail before round 1 if it cannot be written; change no file
        new = not os.path.exists(args.out)
        open(args.out, "a", encoding="utf-8").close()
        if new:
            os.remove(args.out)
    print("note: input regularity is assumed, not verified; "
          "run 'subsmooth certify' for a convergence certificate",
          file=sys.stderr)
    current = mask
    for r in range(1, args.rounds + 1):
        if current.kind is Kind.HERMITE:
            nxt = smooth_hermite(current)
            print(f"round {r}: zeta = {zeta_of(current)}, phi {current.phi} -> {nxt.phi}, "
                  f"support {current.support} -> {nxt.support}", file=sys.stderr)
        else:
            k = len(common_one_eigenspace(current))
            nxt = smooth_vector(current)
            print(f"round {r}: k = {k}, support {current.support} -> "
                  f"{nxt.support}", file=sys.stderr)
        current = nxt
        maskfile.check_writable(current)  # stop at the first unwritable round
    _emit(maskfile.serialize(current), args.out)
    return 0


def cmd_certify(args) -> int:
    if not 1 <= args.lmax <= MAX_LMAX:
        raise SubsmoothError(f"--lmax must be in 1..{MAX_LMAX}, got {args.lmax}")
    mask = _load(args.path)
    if mask.kind is Kind.HERMITE:
        ell = args.ell if args.ell is not None else 1
        result = certify_hermite(mask, ell, args.lmax)
    else:
        ell = args.ell if args.ell is not None else 0
        result = certify_vector(mask, ell, args.lmax)
    print(result)
    if isinstance(result, Certificate):
        return 0
    return 2


def cmd_render(args) -> int:
    if args.depth < 1:
        raise SubsmoothError("--depth must be >= 1")
    mask = _load(args.path)
    if not 1 <= args.basis <= mask.p:
        raise SubsmoothError(f"--basis must be in 1..{mask.p}")
    lo, hi = mask.support
    # the shift is capped so that a huge --depth costs nothing to check
    rows = (hi - lo + 1) << min(args.depth, MAX_RENDER_ROWS.bit_length())
    if rows > MAX_RENDER_ROWS:
        raise SubsmoothError(
            f"--depth {args.depth} would render about {hi - lo + 1}*2^{args.depth} "
            f"rows, over the budget of {MAX_RENDER_ROWS}")
    _emit(render(mask, args.depth, args.basis).to_csv(exact=args.exact), args.out)
    return 0


# name -> (handler, help, ((flag, add_argument keywords), ...))
COMMANDS = {
    "show": (cmd_show, "print the structure of a mask",
             (("path", {"help": "mask file or catalog:NAME"}),)),
    "smooth": (cmd_smooth, "raise smoothness by one per round", (
        ("path", {}),
        ("--rounds", {"type": int, "default": 1,
                      "help": f"smoothing rounds, 1..{MAX_ROUNDS} (default 1)"}),
        ("--out", {"help": "output mask file"}))),
    "certify": (cmd_certify, "search for a convergence certificate", (
        ("path", {}),
        ("--ell", {"type": int,
                   "help": "smoothness order (default: 1 hermite, 0 otherwise)"}),
        ("--lmax", {"type": int, "default": DEFAULT_LMAX,
                    "help": f"largest power to test (default {DEFAULT_LMAX})"}))),
    "render": (cmd_render, "sample a basic limit function to CSV", (
        ("path", {}),
        ("--depth", {"type": int, "required": True, "help": "refinement steps"}),
        ("--basis", {"type": int, "default": 1,
                     "help": "1-based component of the unit impulse"}),
        ("--out", {"help": "output CSV file"}),
        ("--exact", {"action": "store_true",
                     "help": "emit exact p/q values instead of floats"}))),
}


def _formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's formatter at the width it would pick, the columns of
    shutil.get_terminal_size minus 2 (COLUMNS, else the terminal of
    sys.__stdout__, else 80), without importing shutil and what it loads."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


def _command_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give parser the arguments and the handler of the command name."""
    fn, _help, arguments = COMMANDS[name]
    for flag, kwargs in arguments:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(fn=fn)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="subsmooth", formatter_class=_formatter,
        description="Symbol calculus for raising the smoothness of "
                    "scalar, vector and Hermite subdivision schemes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, help_, _arguments) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_, formatter_class=_formatter), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        parser = _command_parser(argparse.ArgumentParser(prog=f"subsmooth {argv[0]}",
                                                         formatter_class=_formatter), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if extra:  # reported by the full parser, in its words and usage line
            args = _build_parser().parse_args(argv)
        args.command = argv[0]
    else:  # top-level -h, no command or an unknown one
        args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConsistencyError as exc:
        print(f"internal error, please report: {exc}", file=sys.stderr)
        return 1
    except (SubsmoothError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a mask file to read or an --out file to write
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename is not None
              else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
