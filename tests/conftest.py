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


def _run_python(argv, cwd, extra_env=None, **popen):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    env.update(extra_env or {})
    popen = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) | popen
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, **popen)


@pytest.fixture
def run_cli():
    """Run `python -m dd_discord.cli ARGS` in cwd; returns the CompletedProcess.

    extra_env adds variables to the child's environment; popen keywords
    (stdout, captured by default, or preexec_fn) go to subprocess.run.
    """

    def run(args, cwd, extra_env=None, **popen):
        return _run_python(["-m", "dd_discord.cli", *args], cwd, extra_env, **popen)

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


def group_tests(rows, check):
    """Test name -> its test, of a table's (node, row) pairs; check(row, request) checks a row.

    A node is "name[id]" or "name": the rows of a name with ids make one
    test parametrized by them, those of a name without one test of each
    in turn. check takes any fixture it needs through request.
    """
    groups = {}
    for node, row in rows:
        name, _, row_id = node.partition("[")
        groups.setdefault(name, []).append((row, row_id[:-1]))
    return {name: _table_test(*zip(*pairs), check) for name, pairs in groups.items()}


def _table_test(rows, ids, check):
    if not any(ids):
        def test(request):
            for row in rows:
                check(row, request)
        return test
    assert all(ids) and len(set(ids)) == len(ids), ids

    @pytest.mark.parametrize("row", rows, ids=ids)
    def test(row, request):
        check(row, request)
    return test


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
