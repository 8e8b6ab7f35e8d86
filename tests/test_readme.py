"""The README's examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from maskmodes.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(language, after):
    """The first fenced ``language`` block after the line ``after``."""
    start = README.index(after)
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:] for line in _block("sh", "## Command line").splitlines()
                if line.startswith("maskmodes ")]
    assert commands
    for args in commands:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (args, result.output)

    code = _block("python", "## Library")
    promised = [re.search(r"#\s*([^\s:]+)", line).group(1)
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert promised == ["1.5", "True"]
    assert out.getvalue().splitlines() == promised
