"""The README's library example and CLI block run as written against the package under test."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from lossyphase.cli import main

from conftest import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, language):
    block = re.search(rf"^## {heading}\n.*?^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert block, f"README has no {language} block under '## {heading}'"
    return block[1]


def test_library_example_runs(tmp_path):
    # a fresh interpreter, so the example imports the package as a reader's script would
    code = readme_block("Library example", "python")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env=child_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == code.count("print(")


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every lossyphase line exits 0 and writes the files it reports and the
    # files the block names; the gnuplot lines only render them
    block = readme_block("CLI", "sh")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lossyphase ")]
    assert [argv[0] for argv in commands] == ["curve", "nopt", "dist", "validate"]
    monkeypatch.chdir(tmp_path)
    written = []
    for argv in commands:
        assert main(argv) == 0, argv
        written += re.findall(r"^wrote (\S+) and (\S+)$", capsys.readouterr().out, re.MULTILINE)
    named = [word for word in shlex.split(block, comments=True) if word.endswith((".csv", ".gp"))]
    assert len(written) == 3 and named
    for name in named + [name for pair in written for name in pair]:
        assert (tmp_path / name).is_file(), name
