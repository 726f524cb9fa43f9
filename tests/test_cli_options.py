"""Every option a subcommand defines is read by its handler.

A standard-library stand-in for a linter's dead-option rule. Each
subcommand runs once on a tiny input, with parse_args returning a
Namespace that records the attributes read from it; every option it holds
must have been read. An option that no handler reads would be accepted
and silently ignored.
"""

import argparse
import json

import pytest

from chiralwords import cli

# Set by argparse to dispatch the command, not passed by a user.
DISPATCH = {"func", "command", "action"}
RECORDS = object()  # stands for the path of a one-record findings file

COMMANDS = {
    "group list": ["group", "list", "--max-order", "4"],
    "group show": ["group", "show", "C4"],
    "group autos": ["group", "autos", "C4"],
    "image": ["image", "--group", "S3", "--word", "x1 x2"],
    "chiral": ["chiral", "--group", "S3", "--word", "x1 x2"],
    "weak-chiral": ["weak-chiral", "--group", "S3", "--word", "x1 x2"],
    "verify": ["verify", "lemma1", "--max-order", "4", "--max-len", "2"],
    "search": ["search", "--max-len", "2", "--max-order", "6"],
    "replay": ["replay", RECORDS],
}


def leaf_commands(parser, prefix=()):
    """The names of the commands a parser dispatches, e.g. 'group list'."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_commands(sub, prefix + (name,))
            return
    yield " ".join(prefix)


def test_every_command_is_run_below():
    assert set(leaf_commands(cli.build_parser())) == set(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_every_option_is_read(name, tmp_path, monkeypatch, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({"group": "S3", "word": "x1 x2",
                                   "arity": 2}) + "\n")
    argv = [str(records) if a is RECORDS else a for a in COMMANDS[name]]
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            reads.add(attr)
            return super().__getattribute__(attr)

    parser = cli.build_parser()
    parsed = []

    def parse_args(args):
        ns = argparse.ArgumentParser.parse_args(parser, args,
                                                namespace=Recording())
        reads.clear()  # argparse reads the namespace while it fills it
        parsed.append(ns)
        return ns

    monkeypatch.setattr(parser, "parse_args", parse_args)
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    assert cli.main(argv) == 0, capsys.readouterr().err
    [ns] = parsed
    unread = set(vars(ns)) - DISPATCH - reads
    assert not unread, f"{name} takes options it never reads: {unread}"
