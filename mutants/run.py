"""Run the mutant catalogue, each mutant against only its own tests.

Usage:
    python3 mutants/run.py [NAME...]

With no NAME it runs every mutant of catalogue.py, else only the named
ones; an unknown name is refused, with exit status 2 and the name on
stderr, before any mutant runs.  For each mutant the runner
copies src/, tests/, pyproject.toml and a read-only perfbench/ (a test
reads its reference listing) into a new temporary directory, replaces
the mutant's old text with its new text there and runs
`python -m pytest -x -q` on the mutant's test ids.  A failing or
erroring run kills the mutant, and so does one that outlasts the
timeout; a passing run lets it survive.  A mutant whose old text does
not occur exactly once, or whose tests cannot be collected, is not
applicable.

It prints one JSON object: the names killed, survived and
not_applicable.  The exit status is 0 when every mutant applied and was
killed, else 1.
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from catalogue import MUTANTS  # noqa: E402

TIMEOUT_S = 600
_SKIP = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis",
                               "results")


def copy_tree(dest: str) -> None:
    """What the tests read, with perfbench/ made read-only."""
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=_SKIP)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)
    for folder, _, files in os.walk(os.path.join(dest, "perfbench")):
        for name in files:
            path = os.path.join(folder, name)
            os.chmod(path, stat.S_IMODE(os.stat(path).st_mode) & ~0o222)


def run(mutant) -> str:
    """'killed', 'survived' or 'not_applicable'."""
    with tempfile.TemporaryDirectory(prefix="gf2mf-mutant-") as tmp:
        copy_tree(tmp)
        path = os.path.join(tmp, mutant.file)
        with open(path) as f:
            text = f.read()
        if text.count(mutant.old) != 1:
            return "not_applicable"
        with open(path, "w") as f:
            f.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q",
               "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "killed"
    # pytest: 0 passed, 1 tests failed, 2 a collection or import error;
    # 4 and 5 mean a test id matched nothing.
    return {0: "survived", 1: "killed", 2: "killed"}.get(
        done.returncode, "not_applicable")


def main(names: "list[str]") -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print("unknown mutant: " + " ".join(unknown), file=sys.stderr)
        return 2
    outcome = {"killed": [], "survived": [], "not_applicable": []}
    for mutant in [by_name[n] for n in dict.fromkeys(names)] or MUTANTS:
        outcome[run(mutant)].append(mutant.name)
    print(json.dumps(outcome, indent=1))
    return 1 if outcome["survived"] or outcome["not_applicable"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
