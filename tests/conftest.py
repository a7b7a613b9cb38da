"""Helpers shared by the test modules."""

import os
from pathlib import Path

import lossyphase


def child_env() -> dict:
    """``os.environ`` with the directory of the package under test first on PYTHONPATH.

    The entry is an absolute path, so a child interpreter started in any
    working directory imports the same code as the tests (a relative
    ``PYTHONPATH=src`` would not resolve).
    """
    env = dict(os.environ)
    package_root = str(Path(lossyphase.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env
