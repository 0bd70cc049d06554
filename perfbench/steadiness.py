#!/usr/bin/env python3
"""Steadiness report: run one workload N times, one seed each, and print per
metric the median, quartiles, min and max, and the quartile spread as a
share of the median next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload serve --runs 10 [--first-seed 1]
        [--root DIR] [--json FILE]

Every run measures for BENCHMARK.json's run_seconds, so reports made on
different commits compare runs of the same length. Seeds are first-seed,
first-seed + 1, ...; a second set with another --first-seed checks that the
medians do not depend on the seeds. --root runs another checkout's perfbench
(for example the parent commit, exported with `git archive`), so parent and
change can be reported side by side. A spread above its bound is marked
'!!'; one above a third of its bound, the steadiness target, is marked '!'
(setup_s is exempt from the target, not from the bound).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"seed {seed}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    context = next((json.loads(ln[len("context: "):]) for ln in lines
                    if ln.startswith("context: ")), {})
    return result, context, proc.returncode, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--root", default=os.path.dirname(HERE))
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    with open(os.path.join(args.root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, runs = {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, context, rc, wall = run_once(args.root, args.workload, seed, seconds)
        runs.append({"seed": seed, "exit": rc, "wall_s": wall, "result": result,
                     "context": context})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {i + 1}/{args.runs} seed {seed}: exit {rc} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s "
              f"host_probe_ms={context.get('host_probe_ms.median')}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs x {seconds} s, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}")
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} "
          f"{'max':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "!!"
        elif bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "!"
        print(f"{name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vs):12.6g} {max(vs):12.6g} "
              f"{spread:8.3f} {bound if bound is not None else '':>6} {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
