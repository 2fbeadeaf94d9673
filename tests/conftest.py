"""Shared pytest plumbing: collect acceptance-criterion result lines and
echo them in the terminal summary so a plain `pytest -v` run shows one
PASS/FAIL line per criterion, run scripts in fresh interpreters, and
derandomize hypothesis."""

import os
import subprocess
import sys

import pytest
from hypothesis import settings

# Every run draws the same hypothesis examples, so a failure reruns as it
# happened.  Example counts stay the defaults and the per-test settings.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def pytest_configure(config):
    config.acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)


@pytest.fixture
def fresh_python():
    """Run a script in a new interpreter and return its stdout.

    Nothing an earlier test imported is loaded there, and warnings are
    errors, as filterwarnings makes them in-process.
    """
    import gf2mf

    src = os.path.dirname(os.path.dirname(os.path.abspath(gf2mf.__file__)))

    def run(script: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
