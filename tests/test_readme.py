"""The README's library example runs as written against the package under test."""

import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path):
    # a fresh interpreter, so the example imports the package as a reader's script would
    block = re.search(r"^## Library example\n+```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert block, "README has no python block under '## Library example'"
    run = subprocess.run([sys.executable, "-c", block[1]], capture_output=True, text=True,
                         cwd=tmp_path, env=child_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == block[1].count("print(")
