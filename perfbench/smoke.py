#!/usr/bin/env python3
"""The benchmark's own test: run every workload at tiny sizes and check the
output contract.

    python3 perfbench/smoke.py

For each workload it runs run.py --smoke with two seeds untraced and once
traced, and checks that each result names every metric of BENCHMARK.json
(end-to-end untraced, per-layer traced) with its declared unit, that every
output check passed, that the seed was recorded, and that the traced run
lists exactly the per-layer metrics the workload does not measure under
`not_exercised` (MEASURED_ON below), so a metric the driver forgets to
compute fails here instead of reading 0. A last run per workload corrupts
one expected reply inside the driver and must end with correct=false and a
non-zero exit. Takes about a minute after the build.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MINE = {"mine_tc", "mine_sym", "mine_4cc"}
SERVING = {"serve", "live"}
ALL = MINE | SERVING
# The workloads that measure each per-layer metric. No query calls
# kernels::and3_popcount (4cc's Bloom-filter path hoists the (u, v) AND and
# calls and_popcount_batch), so that metric is measured on none.
MEASURED_ON = {
    "graph.gen_s": MINE, "graph.load_s": SERVING,
    "core.build_s": ALL, "core.pair_us": SERVING,
    "algorithms.tc_ms": {"mine_tc"}, "algorithms.cc_ms": {"mine_sym"},
    "algorithms.cluster_ms": {"mine_sym"}, "algorithms.4cc_ms": {"mine_4cc"},
    "algorithms.tc_exact_ms": {"mine_tc"},
    "algorithms.tc_par_eff": {"mine_tc"}, "algorithms.4cc_par_eff": {"mine_4cc"},
    "engine.tc_ms": {"mine_tc"}, "engine.cc_ms": {"mine_sym"},
    "engine.cluster_ms": {"mine_sym"}, "engine.4cc_ms": {"mine_4cc"},
    "engine.tc_exact_ms": {"mine_tc"},
    "engine.self_ms": MINE, "engine.batch_self_us": SERVING,
    "kernels.and_popcount_words": MINE, "kernels.and3_popcount_words": set(),
    "kernels.intersect_elems": {"mine_tc"}, "kernels.gallop_share": {"mine_tc"},
    "kernels.and_popcount_ns_per_word": {"mine_tc"},
    "kernels.intersect_ns_per_elem": {"mine_tc"}, "kernels.pair_words": SERVING,
    "protocol.self_us": SERVING, "protocol.bytes_per_query": SERVING,
    "protocol.err_replies": SERVING,
    "net.self_us": SERVING, "net.csw_per_query": SERVING, "net.cpu_us_per_query": SERVING, "net.rejects": SERVING,
    "generation.pin_ns": {"live"}, "generation.seal_self_ms": {"live"},
    "generation.overlap_share": {"live"}, "generation.overlap_p50_us": {"live"},
    "live.seal_ms": {"live"}, "live.apply_ms": {"live"}, "live.patched_share": {"live"},
    "live.cold_rebuilds": {"live"},
    "io.save_ms": {"live"}, "io.load_ms": SERVING, "io.gen_mb": {"live"},
    "trace.setup_s_delta": ALL, "trace.rss_mb_delta": ALL, "trace.rel_error_delta": ALL,
    "trace.qps_delta": ALL, "trace.p50_us_delta": ALL, "trace.p99_us_delta": ALL,
}


def run(workload, seed, trace, fault=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--smoke"]
    env = dict(os.environ, PB_INJECT_FAULT="1") if fault else None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    context = next((json.loads(ln[len("context: "):]) for ln in lines
                    if ln.startswith("context: ")), {})
    return proc.returncode, result, context, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    unmapped = {m["name"] for m in spec["per_layer"]} ^ set(MEASURED_ON)
    if unmapped:
        problems.append(f"MEASURED_ON and BENCHMARK.json differ on: {sorted(unmapped)}")
    for w in (x["name"] for x in spec["workloads"]):
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            rc, result, context, err = run(w, seed, trace)
            tag = f"{w} seed={seed} trace={trace}"
            if result is None:
                problems.append(f"{tag}: no result (exit {rc}): {err[-500:]}")
                continue
            declared = spec["per_layer" if trace else "end_to_end"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if set(result["metrics"]) != {m["name"] for m in declared}:
                problems.append(f"{tag}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} missing or not in {m['unit']}")
                elif not trace and not got["value"] > 0:
                    problems.append(f"{tag}: end-to-end {m['name']} is {got['value']}")
            if rc != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: exit {rc}, correct={result['correct']}, "
                                f"failed={result['failed']}: {err[-500:]}")
            if context.get("seed") != str(seed):
                problems.append(f"{tag}: seed not recorded in the context block")
            if trace:
                listed = context.get("not_exercised", "none")
                listed = set() if listed == "none" else set(listed.split(","))
                want = {n for n, on in MEASURED_ON.items() if w not in on}
                for n in sorted(listed - want):
                    problems.append(f"{tag}: {n} should be measured but is not")
                for n in sorted(want - listed):
                    problems.append(f"{tag}: {n} is reported but this workload does not measure it")
            print(f"ok   {tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations checked", flush=True)
        rc, result, _, _ = run(w, 3, 0, fault=True)
        if rc == 0 or result is None or result["correct"] or result["failed"] == 0:
            problems.append(f"{w}: an injected wrong answer was not caught (exit {rc})")
        else:
            print(f"ok   {w}: injected wrong answer caught, exit {rc}", flush=True)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
