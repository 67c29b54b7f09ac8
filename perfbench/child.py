"""One campaign of one workload, in a fresh process (run by ``run.py``).

Prints one JSON object on its last stdout line: the end-to-end metrics of
this campaign, the digest of its simulated statistics, the problems the
output check found and, when traced, the per-layer metrics.  Set-up time
counts from ``--launched`` (the parent's wall clock just before it started
this process), so interpreter start-up and imports are included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from typing import Any, Dict


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def run(args: argparse.Namespace) -> Dict[str, Any]:
    begin = time.perf_counter()
    import repro.experiments.campaign as campaign
    import workloads
    import_s = time.perf_counter() - begin

    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.traced:
        import tracing
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)

    begin = time.perf_counter()
    tasks = workload.build(args.seed, args.tiny)
    keys = [task.task_key() for task in tasks]
    expand_s = time.perf_counter() - begin

    scratch = tempfile.mkdtemp(prefix="campaign-", dir=args.tmp)
    try:
        first_cell = []
        telemetry = None
        if args.traced:
            from repro.telemetry import Telemetry
            telemetry = Telemetry()
        executor = campaign.CampaignExecutor(
            jobs=workload.jobs,
            cache_dir=(os.path.join(scratch, "cache")
                       if workload.stores else None),
            journal=(os.path.join(scratch, "journal.jsonl")
                     if workload.stores else None),
            resume=False,
            progress=lambda event: first_cell or first_cell.append(
                time.perf_counter()),
            telemetry=telemetry,
        )
        setup_s = time.time() - args.launched

        cpu_before = _cpu_s()
        start = time.perf_counter()
        results = executor.run(tasks)
        campaign_s = time.perf_counter() - start
        executor.close()
        cpu_s = _cpu_s() - cpu_before
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.corrupt and results[0] is not None:
        # Self-test hook: damage one cell so the output check must fail.
        results[0] = dataclasses.replace(results[0],
                                         total_throughput_bps=float("nan"))

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failed = sum(result is None for result in results)
    summaries = [workloads.cell_summary(r) for r in results if r is not None]
    successes = sum(s[0] for s in summaries)
    attempts = successes + sum(s[1] for s in summaries)
    report: Dict[str, Any] = {
        "cells": len(tasks),
        "failed": failed,
        "digest": workloads.digest(keys, results),
        "problems": workloads.check_results(tasks, results),
        "metrics": {
            "setup_s": setup_s,
            "campaign_s": campaign_s,
            "cpu_s": cpu_s,
            # ru_maxrss is in KiB on Linux; workers report the largest one.
            "peak_rss_mb": (own + workers) / 1024.0,
            "completed_frac": (len(tasks) - failed) / len(tasks),
        },
    }
    if recorder is not None:
        layers = tracing.layer_metrics(telemetry.records, recorder.spans,
                                       campaign_s)
        layers.update({
            "campaign.import_s": import_s,
            "campaign.expand_s": expand_s,
            "campaign.first_cell_s": (first_cell[0] - start if first_cell
                                      else campaign_s),
            "traffic.offered_frames": sum(s[4] for s in summaries),
            "traffic.dropped_frames": sum(s[5] for s in summaries),
            "sim.success_ratio": successes / attempts if attempts else 0.0,
        })
        report["layers"] = layers
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as sink:
                for span in recorder.spans:
                    sink.write(json.dumps(span) + "\n")
                for record in telemetry.records:
                    sink.write(json.dumps(record, default=str) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
