"""Every command and library example the README shows runs as shown.

The ``bratteli ...`` lines of the README's ``sh`` blocks (a trailing
backslash continues a line) are run in process through ``cli.main``, in
a temporary directory, with the fixture paths made absolute.  Each must
end with a verdict exit code (0, 1 or 3) and no internal error, so a
flag that is removed cannot stay documented.  Run twice in one process,
and again after a usage error, each prints the same bytes.

Every ``python`` block is executed in process from the repository root,
so a documented library call cannot drift from its signature.
"""

import os
import re
import shlex

import pytest

from bratteli.cli import main

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme_blocks(lang):
    with open(os.path.join(_ROOT, "README.md")) as fh:
        return re.findall(r"```%s\n(.*?)```" % lang, fh.read(), re.S)


def _readme_commands():
    commands = []
    for block in _readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["bratteli"]:
                commands.append(words[1:])
    return commands


_COMMANDS = _readme_commands()
_EXAMPLES = _readme_blocks("python")


def test_readme_shows_commands():
    assert len(_COMMANDS) >= 10
    assert len(_EXAMPLES) >= 2


@pytest.mark.parametrize("source", _EXAMPLES,
                         ids=["python-%d" % i for i in range(len(_EXAMPLES))])
def test_readme_example_runs(source, monkeypatch):
    monkeypatch.chdir(_ROOT)
    exec(compile(source, "README.md", "exec"), {"__name__": "__readme__"})


def _absolute(argv):
    return [os.path.join(_ROOT, a) if a.startswith("fixtures/") else a
            for a in argv]


@pytest.mark.parametrize("argv", _COMMANDS, ids=[" ".join(a[:2])
                                                 for a in _COMMANDS])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(_absolute(argv))
    err = capsys.readouterr().err
    assert code in (0, 1, 3), err
    assert "internal error" not in err


def test_repeated_commands_print_the_same_bytes(tmp_path, monkeypatch,
                                                capsys):
    """``main`` builds its parser once per process and reuses it.  Each
    README command is run twice in a row, and once more in reverse order
    after a usage error, and must print the same bytes (and write the
    same -o file) every time, whatever ran before it."""
    monkeypatch.chdir(tmp_path)

    def outcome(argv):
        for f in tmp_path.iterdir():
            f.unlink()
        code = main(argv)
        cap = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        return code, cap.out, cap.err, files

    commands = [_absolute(argv) for argv in _COMMANDS]
    first = [outcome(argv) for argv in commands]
    for argv, want in zip(commands, first):
        assert outcome(argv) == want
    for argv, want in reversed(list(zip(commands, first))):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert outcome(argv) == want
