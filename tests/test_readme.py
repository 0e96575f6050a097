"""The README's examples run as written: the library tour as Python, and
each line of the CLI block through cli.main in a scratch directory."""

import shlex
from pathlib import Path

from defcolor.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_library_tour_runs():
    exec(compile(_block("Library tour", "python"), "README.md", "exec"), {})


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block("CLI", "sh").splitlines()
    assert lines
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "defcolor"
        assert main(argv) == 0, line
    assert "genus: 0" in capsys.readouterr().out
    assert (tmp_path / "audit.csv").read_text().startswith("element_kind,")
