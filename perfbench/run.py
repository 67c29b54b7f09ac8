"""Campaign benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload connected-sweep --seed 1 \\
        --seconds 60 --trace 0

Each repetition runs one whole campaign of the workload in a fresh Python
process (``child.py``), so set-up time and peak memory are measured the way
a user meets them.  ``--trace 0`` repeats untraced campaigns for about
``--seconds`` seconds (at least three) and reports the median of every
end-to-end metric.  ``--trace 1`` alternates untraced and traced campaigns
(at least two of each) and reports the median per-layer metrics of the
traced ones plus the tracing overhead.  Every campaign's outputs are
checked; the digest of its simulated statistics, and in traced runs its
work counters, must be identical across all campaigns of one invocation.

The last stdout line is the JSON result ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it give the host manifest, each
workload digest and, in traced runs, the tracing overhead.  See
``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# Neither this process nor the campaigns write bytecode: the tree may track
# __pycache__ files, and a run must leave every tracked file untouched.
sys.dont_write_bytecode = True

from tracing import WORK_COUNTERS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space of the campaigns (fresh cache and journal directories),
#: removed when the run ends.
TMP_DIR = ROOT / ".perfbench-tmp"

WORKLOAD_NAMES = ("connected-sweep", "hidden-sweep", "loaded-pool",
                  "singletons")
MIN_TIMED_CAMPAIGNS = 3
MIN_TRACED_PAIRS = 2
#: A campaign that runs longer than this is a hang, not a result.
CHILD_TIMEOUT_S = 60.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # A fixed string-hash seed removes one source of run-to-run variation
    # (dict and set layouts); results do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_campaign(workload: str, seed: int, traced: bool, tiny: bool = False,
                 corrupt: bool = False,
                 trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one campaign in a fresh process and return its report."""
    command = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--tmp", str(TMP_DIR)]
    command += ["--traced"] if traced else []
    command += ["--tiny"] if tiny else []
    command += ["--corrupt"] if corrupt else []
    command += ["--trace-out", trace_out] if trace_out else []
    command += ["--launched", repr(time.time())]
    # A session of its own lets a hung campaign be killed together with
    # its pool workers.
    with subprocess.Popen(command, env=_child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise BenchmarkError(
                f"{workload} campaign ran past {CHILD_TIMEOUT_S:g} s")
    if child.returncode != 0:
        raise BenchmarkError(
            f"{workload} campaign exited with code {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _median(reports: List[Dict[str, Any]], section: str) -> Dict[str, float]:
    names = reports[0][section]
    return {name: statistics.median(r[section][name] for r in reports)
            for name in names}


def verdict(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Whether a set of campaigns of one workload and seed is correct.

    Every campaign must pass its own output check, and all of them must
    agree on the simulated-statistics digest and on every work counter.
    """
    problems = [p for r in reports for p in r["problems"]]
    digests = sorted({r["digest"] for r in reports})
    if len(digests) > 1:
        problems.append(f"digests differ across campaigns: {digests}")
    traced = [r["layers"] for r in reports if "layers" in r]
    for name in WORK_COUNTERS:
        values = sorted({layers[name] for layers in traced})
        if len(values) > 1:
            problems.append(f"work counter {name} differs: {values}")
    return {"correct": not problems, "problems": problems,
            "digest": digests[0] if digests else None,
            "attempted": sum(r["cells"] for r in reports),
            "failed": sum(r["failed"] for r in reports)}


def host_manifest(seed: int) -> Dict[str, Any]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_rev": rev, "git_dirty": dirty, "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False,
            trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run the campaigns of one invocation; return the result object."""
    timed: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    while True:
        timed.append(run_campaign(workload, seed, False, tiny))
        if trace:
            traced.append(run_campaign(
                workload, seed, True, tiny,
                trace_out=None if traced else trace_out))
        elapsed = time.perf_counter() - begin
        done = len(timed) if not trace else len(traced)
        enough = MIN_TRACED_PAIRS if trace else MIN_TIMED_CAMPAIGNS
        if done >= enough and elapsed * (done + 1) / done > seconds:
            break
    check = verdict(timed + traced)
    if trace:
        metrics = _median(traced, "layers")
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["metrics"]["campaign_s"] for r in traced)
            / statistics.median(r["metrics"]["campaign_s"] for r in timed))
    else:
        metrics = _median(timed, "metrics")
    samples = {name: [r["metrics"][name] for r in timed]
               for name in timed[0]["metrics"]}
    check.update(metrics=metrics, samples=samples)
    return check


def _declared_units() -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        declared = json.load(spec)
    return {m["name"]: m["unit"]
            for section in ("end_to_end", "per_layer")
            for m in declared[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Campaign benchmark of the repro simulator stack.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out",
                        help="write the first traced campaign's spans and "
                             "telemetry records to this JSONL file")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny campaigns (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    units = _declared_units()
    manifest = host_manifest(args.seed)
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.tiny, args.trace_out)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    manifest["loadavg_end"] = list(os.getloadavg())
    print("manifest " + json.dumps(manifest))
    for name, values in outcome["samples"].items():
        print(f"samples {name} ({len(values)} campaigns): "
              + " ".join(f"{value:.4g}" for value in values))
    print(f"digest {args.workload} seed={args.seed}: {outcome['digest']}")
    for problem in outcome["problems"]:
        print(f"check failed: {problem}")
    metrics = outcome["metrics"]
    if args.trace:
        print(f"tracing overhead {args.workload}: "
              f"{metrics['trace.overhead_ratio']:.3f}x untraced campaign_s; "
              f"{metrics['trace.unattributed_frac']:.1%} of traced "
              f"campaign_s outside every executor phase")
    missing = [name for name in metrics if name not in units]
    if missing:
        print(f"error: undeclared metrics {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
