"""Every option of every subcommand is read by its handler.

An option that no handler reads chooses nothing: it is accepted, shown in
``--help`` and then ignored.  The scan runs each subcommand once on a small
valid input, through a namespace that records the attributes read after
parsing, and fails on any option of that subcommand the run never read.
"""

import argparse

from sl2cohom import cli

#: One small valid invocation per subcommand of ``sl2cohom``.
INVOCATIONS = {
    "dim": ["dim", "--lambdas", "0,0", "--mu", "1"],
    "table": ["table", "--n", "2", "--k-max", "1"],
    "verify": ["verify", "--n", "2", "--k-max", "1", "--oracle", "off"],
    "basis": ["basis", "--lambdas", "0,0", "--mu", "1"],
}


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the public attributes read."""

    def __init__(self) -> None:
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def unread_options(parser, invocations):
    """{subcommand: [dest, ...]} of the options its handler never read when
    run on its invocation; subcommands with none are left out."""
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(invocations) == set(subparsers.choices)
    unread = {}
    for name, subparser in subparsers.choices.items():
        args = parser.parse_args(invocations[name], namespace=_ReadRecorder())
        args._reads.clear()  # argparse itself reads the namespace while parsing
        assert args.func(args) == 0, name
        missing = [action.dest for action in subparser._actions
                   if action.default is not argparse.SUPPRESS
                   and action.dest not in args._reads]
        if missing:
            unread[name] = missing
    return unread


def test_every_option_is_read_by_its_handler(capsys):
    assert unread_options(cli.build_parser(), INVOCATIONS) == {}


def test_the_scan_flags_a_planted_unread_option(capsys):
    parser = argparse.ArgumentParser(prog="toy")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--used", default="a")
    run.add_argument("--unused", default="b")
    run.set_defaults(func=lambda args: print(args.used) or 0)
    assert unread_options(parser, {"run": ["run"]}) == {"run": ["unused"]}
    assert capsys.readouterr().out == "a\n"
