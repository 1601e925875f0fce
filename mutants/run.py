#!/usr/bin/env python3
"""Run the mutants of `mutants/table.py`, one per copy of the checkout.

Usage, from the root of a checkout:

    python3 mutants/run.py [--only NAME ...] [--workdir DIR] [--out MUTANTS.json]

The runner first runs every named test on an unmutated copy and stops if
one fails.  Then, for each mutant, it copies `src/`, `tests/`, `perfbench/`
and `pyproject.toml` into a fresh directory, replaces the mutant's snippet
(which must occur exactly once in its file), runs the mutant's tests in one
pytest subprocess and removes the copy.  A mutant is killed when pytest
reports a failing test, survived when all its tests pass, and an error on
any other pytest outcome.  The results go to MUTANTS.json: per mutant its
status, the failing tests and the seconds its run took.  The exit code is 0
when every mutant is killed, or survives as a named equivalent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from table import MUTANTS  # noqa: E402

COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".out")


def copy_checkout(dest: str) -> None:
    os.makedirs(dest)
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=IGNORED)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def apply(copy: str, mutant: dict) -> None:
    path = os.path.join(copy, "src", "duhem", mutant["file"])
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant["snippet"])
    if count != 1:
        raise SystemExit(f"{mutant['name']}: snippet occurs {count} times in {mutant['file']}")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant["snippet"], mutant["replacement"]))


def run_tests(copy: str, tests: list[str]) -> tuple[int, list[str], float]:
    """pytest's exit code, the failing node ids and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - start
    failed = [
        line[len("FAILED "):].split(" - ")[0]
        for line in proc.stdout.splitlines()
        if line.startswith("FAILED ")
    ]
    return proc.returncode, failed, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*", help="names of the mutants to run")
    parser.add_argument("--workdir", help="directory for the copies (default: a new temporary one)")
    parser.add_argument("--out", default=os.path.join(ROOT, "MUTANTS.json"))
    args = parser.parse_args(argv)

    mutants = [m for m in MUTANTS if not args.only or m["name"] in args.only]
    workdir = tempfile.mkdtemp(prefix="duhem-mutants-", dir=args.workdir)
    try:
        clean = os.path.join(workdir, "clean")
        copy_checkout(clean)
        tests = sorted({t for m in mutants for t in m["tests"]})
        code, failed, _ = run_tests(clean, tests)
        shutil.rmtree(clean)
        if code != 0:
            print(f"unmutated copy: pytest exit {code}, failing {failed}", file=sys.stderr)
            return 2

        results = []
        for k, mutant in enumerate(mutants):
            copy = os.path.join(workdir, f"m{k}")
            copy_checkout(copy)
            apply(copy, mutant)
            code, failed, seconds = run_tests(copy, mutant["tests"])
            shutil.rmtree(copy)
            status = "killed" if code == 1 and failed else "survived" if code == 0 else "error"
            expected = "survived" if mutant.get("equivalent") else "killed"
            results.append({
                "name": mutant["name"],
                "file": mutant["file"],
                "status": status,
                "expected": expected,
                "killed_by": failed,
                "pytest_exit": code,
                "seconds": round(seconds, 2),
            })
            print(f"{mutant['name']}: {status} ({seconds:.1f} s) {' '.join(failed)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(args.out, "w") as fh:
        json.dump({"python": sys.version.split()[0], "mutants": results}, fh, indent=2)
        fh.write("\n")
    return 0 if all(r["status"] == r["expected"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
