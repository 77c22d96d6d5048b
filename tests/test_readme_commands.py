"""Every command the README shows runs as shown.

The ``bratteli ...`` lines of the README's ``sh`` blocks (a trailing
backslash continues a line) are run in process through ``cli.main``, in
a temporary directory, with the fixture paths made absolute.  Each must
end with a verdict exit code (0, 1 or 3) and no internal error, so a
flag that is removed cannot stay documented.
"""

import os
import re
import shlex

import pytest

from bratteli.cli import main

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme_commands():
    with open(os.path.join(_ROOT, "README.md")) as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["bratteli"]:
                commands.append(words[1:])
    return commands


_COMMANDS = _readme_commands()


def test_readme_shows_commands():
    assert len(_COMMANDS) >= 10


@pytest.mark.parametrize("argv", _COMMANDS, ids=[" ".join(a[:2])
                                                 for a in _COMMANDS])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [os.path.join(_ROOT, a) if a.startswith("fixtures/") else a
            for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 3), err
    assert "internal error" not in err
