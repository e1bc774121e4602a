"""The command line parses each call with the parser of the named command
alone; the full parser (top level and one subparser per command) is built
only for top-level help, a missing or unknown command and leftover
arguments.  Both routes must give the same namespace, or the same exit
code and the same bytes on stdout and stderr."""

import argparse
import contextlib
import io
import os

import pytest

from subsmooth import cli

ACCEPTED = [
    # every command with each option, --opt=value and abbreviations
    ["show", "catalog:merrien"],
    ["smooth", "catalog:merrien"],
    ["smooth", "catalog:merrien", "--rounds", "3", "--out", "out.mask"],
    ["smooth", "--rounds=2", "catalog:merrien", "--out=out.mask"],
    ["smooth", "catalog:merrien", "--ro", "2", "--o", "out.mask"],
    ["certify", "catalog:merrien"],
    ["certify", "catalog:merrien", "--ell", "1", "--lmax", "8"],
    ["certify", "catalog:merrien", "--ell=2", "--lmax=4"],
    ["certify", "catalog:merrien", "--el", "-1", "--lm", "3"],
    ["render", "catalog:merrien", "--depth", "3", "--basis", "2",
     "--out", "out.csv", "--exact"],
    ["render", "--depth=4", "catalog:merrien", "--basis=1"],
    ["render", "catalog:merrien", "--dep", "2", "--ba", "2", "--ex"],
    ["show", "--", "catalog:merrien"],
]
REFUSED = [
    # missing or malformed values
    ["render", "catalog:merrien"],
    ["render", "--depth", "3"],
    ["show"],
    ["smooth", "catalog:merrien", "--rounds"],
    ["certify", "catalog:merrien", "--lmax", "abc"],
    ["render", "catalog:merrien", "--depth", "1.5"],
    # unknown options and extra positionals
    ["certify", "catalog:merrien", "--bogus"],
    ["show", "catalog:merrien", "--bogus=1"],
    ["render", "catalog:merrien", "--bogus"],
    ["show", "catalog:merrien", "extra"],
    ["render", "a", "b", "--depth", "2"],
    ["smooth", "catalog:merrien", "-x", "--rounds", "2", "tail"],
    # help of each command
    ["show", "-h"],
    ["smooth", "-h"],
    ["certify", "--help"],
    ["render", "catalog:merrien", "-h"],
    # the top level
    ["-h"],
    ["--help"],
    [],
    ["bogus"],
    ["shw", "catalog:merrien"],
    ["--bogus", "show", "catalog:merrien"],
]
CORPUS = ACCEPTED + REFUSED


@pytest.fixture
def recorders(monkeypatch):
    """Replace each command's handler with one that records its namespace;
    the full parser, built from the same table, then uses the same ones."""
    monkeypatch.setenv("COLUMNS", "80")  # one help layout for both routes
    seen = []
    for name, (_fn, help_, arguments) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name,
                            (lambda args: seen.append(args) or 0, help_, arguments))
    return seen


def _outcome(call):
    """(namespace or exit code, stdout, stderr) of call()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(call())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_main_parses_as_the_full_parser(argv, recorders):
    def via_main():
        assert cli.main(list(argv)) == 0
        assert len(recorders) == 1
        return recorders.pop()

    expected = _outcome(lambda: cli._build_parser().parse_args(list(argv)))
    assert _outcome(via_main) == expected
    assert isinstance(expected[0], dict) == (argv in ACCEPTED)
    if argv in ACCEPTED:
        assert expected[0]["command"] == argv[0]
        assert expected[0]["fn"] is cli.COMMANDS[argv[0]][0]


@pytest.fixture
def parsers_built(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_one_parser_per_call_on_a_known_command(argv, recorders, parsers_built):
    assert cli.main(argv) == 0
    assert parsers_built == [f"subsmooth {argv[0]}"]


def test_one_parser_for_a_real_certify_call(parsers_built, capsys):
    assert cli.main(["certify", "catalog:bspline3", "--ell", "1"]) == 0
    assert capsys.readouterr().out.startswith("chain certificate")
    assert parsers_built == ["subsmooth certify"]


def test_full_parser_lists_every_command_once(parsers_built):
    cli._build_parser()
    assert parsers_built == ["subsmooth", *(f"subsmooth {name}" for name in cli.COMMANDS)]


def _no_terminal(fd):
    raise OSError("not a terminal")


# COLUMNS, then what os.get_terminal_size gives for the terminal of stdout
TERMINALS = {
    "COLUMNS=80": ("80", _no_terminal),
    "COLUMNS=47": ("47", _no_terminal),
    "no COLUMNS, a 57-column terminal": (None, lambda fd: os.terminal_size((57, 20))),
    "no COLUMNS, no terminal": (None, _no_terminal),
    "COLUMNS=abc, a 120-column terminal": ("abc", lambda fd: os.terminal_size((120, 40))),
    "COLUMNS=0, a 0-column terminal": ("0", lambda fd: os.terminal_size((0, 0))),
}


@pytest.mark.parametrize("terminal", TERMINALS)
def test_help_and_errors_are_argparse_defaults_at_every_width(terminal, monkeypatch):
    """The formatter finds the width without shutil, as shutil does, so help
    and error bytes are those of argparse's own formatter."""
    columns, get_terminal_size = TERMINALS[terminal]
    monkeypatch.delenv("COLUMNS", raising=False)
    if columns is not None:
        monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(os, "get_terminal_size", get_terminal_size)
    ours = [_outcome(lambda: cli.main(list(argv))) for argv in REFUSED]
    monkeypatch.setattr(cli, "_formatter", argparse.HelpFormatter)
    assert [_outcome(lambda: cli.main(list(argv))) for argv in REFUSED] == ours
