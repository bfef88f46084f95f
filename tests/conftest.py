"""Shared test fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dd_discord

# absolute source root of the imported package, so child interpreters
# started in a temporary working directory import the same code
_SRC = str(Path(dd_discord.__file__).resolve().parents[1])


@pytest.fixture
def run_cli():
    """Run `python -m dd_discord.cli ARGS` in cwd; returns the CompletedProcess.

    DD_DISCORD_THREADS is cleared unless extra_env sets it, so --workers
    stays authoritative.
    """

    def run(args, cwd, extra_env=None):
        env = dict(os.environ)
        env.pop("DD_DISCORD_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p)
        env.update(extra_env or {})
        return subprocess.run([sys.executable, "-m", "dd_discord.cli", *args],
                              cwd=cwd, env=env, capture_output=True, text=True)

    return run
