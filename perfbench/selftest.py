"""Fast self-test of the benchmark at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload, traced and untraced, prints every metric
  ``BENCHMARK.json`` declares for that mode, each with its declared unit,
  and passes its own output check;
* a corrupted cell result, a digest mismatch and a work-counter mismatch
  each make the check fail;
* the benchmark refuses to run, without printing a result, in a directory
  that holds only ``BENCHMARK.json`` and ``perfbench/``;
* a run leaves no files behind (bytecode caches aside): the campaigns'
  cache and journal live in a scratch directory that is removed, and
  nothing else in the tree is created or modified.

Exits with code 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.dont_write_bytecode = True

import run  # noqa: E402

ROOT = run.ROOT


def _snapshot() -> Dict[str, Tuple[int, int]]:
    files = {}
    for folder, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in (".git", "__pycache__")]
        for name in names:
            path = os.path.join(folder, name)
            stat = os.stat(path)
            files[os.path.relpath(path, ROOT)] = (stat.st_size,
                                                  stat.st_mtime_ns)
    return files


def _invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0",
         *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(failures: List[str]) -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        declared = json.load(spec)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in declared[section]}
        for workload in declared["workloads"]:
            name = workload["name"]
            done = _invoke(ROOT, "--workload", name, "--trace", str(trace),
                           "--tiny")
            if done.returncode != 0:
                failures.append(f"{name} trace={trace}: exit code "
                                f"{done.returncode}: {done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            printed = {key: value["unit"]
                       for key, value in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{name} trace={trace}: metrics {printed} "
                                f"!= declared {expected}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: {done.stdout}")


def check_detection(failures: List[str]) -> None:
    run.TMP_DIR.mkdir(exist_ok=True)
    try:
        _check_detection(failures)
    finally:
        shutil.rmtree(run.TMP_DIR, ignore_errors=True)


def _check_detection(failures: List[str]) -> None:
    corrupted = run.run_campaign("singletons", 1, traced=False, tiny=True,
                                 corrupt=True)
    if run.verdict([corrupted])["correct"]:
        failures.append("a corrupted result passed the output check")

    good = run.run_campaign("singletons", 1, traced=True, tiny=True)
    if not run.verdict([good, copy.deepcopy(good)])["correct"]:
        failures.append("two identical campaigns failed the check")
    other = copy.deepcopy(good)
    other["digest"] = "0" * 64
    if run.verdict([good, other])["correct"]:
        failures.append("a digest mismatch passed the check")
    other = copy.deepcopy(good)
    other["layers"]["sim.batched.loop_iterations"] += 1
    if run.verdict([good, other])["correct"]:
        failures.append("a work-counter mismatch passed the check")


def check_bare_directory(failures: List[str]) -> None:
    bare = run.TMP_DIR / "bare"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _invoke(bare, "--workload", "singletons", "--trace", "0")
        if done.returncode == 0 or done.stdout.strip():
            failures.append("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(run.TMP_DIR, ignore_errors=True)


def main() -> int:
    before = _snapshot()
    failures: List[str] = []
    check_metrics(failures)
    check_detection(failures)
    check_bare_directory(failures)
    after = _snapshot()
    changed = sorted(path for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))
    if changed:
        failures.append(f"files created or modified by the runs: {changed}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
