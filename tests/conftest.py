"""Shared test fixtures."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dd_discord

# absolute source root of the imported package, so child interpreters
# started in a temporary working directory import the same code
_SRC = str(Path(dd_discord.__file__).resolve().parents[1])


def _run_python(argv, cwd, extra_env=None, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    env.update(extra_env or {})
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


@pytest.fixture
def run_cli():
    """Run `python -m dd_discord.cli ARGS` in cwd; returns the CompletedProcess.

    extra_env adds variables to the child's environment; stdout, captured by default, may be a fd.
    """

    def run(args, cwd, extra_env=None, stdout=subprocess.PIPE):
        return _run_python(["-m", "dd_discord.cli", *args], cwd, extra_env, stdout)

    return run


@pytest.fixture
def run_python():
    """Run `python -c CODE` in a fresh interpreter in cwd, with the package importable."""

    def run(code, cwd):
        return _run_python(["-c", code], cwd)

    return run


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, measure) records measure(**arguments) of each call of owner.name.

    The arguments are bound by parameter name, defaults filled in, so a
    measure names only those it reads; the original then runs. Returns
    the list of records, 1 per call by default.
    """

    def install(owner, name, measure=lambda **_: 1):
        original = getattr(owner, name)
        signature = inspect.signature(original)
        records = []

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            records.append(measure(**bound.arguments))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return records

    return install


_NOT_RUN_IN_FULL = []   # node ids of tests that were skipped, xfailed or xpassed


def pytest_runtest_logreport(report):
    if report.skipped or hasattr(report, "wasxfail"):
        _NOT_RUN_IN_FULL.append(report.nodeid)


def pytest_sessionfinish(session):
    """Fail a run in which any test was skipped, xfailed or xpassed: every test must pass."""
    if _NOT_RUN_IN_FULL and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_line("\nnot run in full: " + ", ".join(_NOT_RUN_IN_FULL), red=True)
