#!/usr/bin/env python3
"""Run one perfbench workload against this checkout and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

W is one of mine_tc, mine_sym, mine_4cc, serve, live.

The first run configures and builds `perfbench/` (the repository's library
and pgtool with the tier-1 flags, plus the pb_driver measuring binary) into
`.bench_build/` at the checkout root; later runs rebuild incrementally. The
driver then runs the workload for --seconds and prints a context block and
a result. Human-readable lines go first; the last line of standard output
is the result object {"correct", "attempted", "failed", "metrics"}: every
end-to-end metric with --trace 0, every per-layer metric with --trace 1.
The driver reports only what the workload measured; a per-layer metric of
a layer the workload never enters is printed as 0 here and named under
`not_exercised` in the context block.

Exit status: 0 when every output check passed, 1 when a check failed (the
result is still printed), 2 when the benchmark could not run at all (no
result is printed).
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DRIVER_TIMEOUT_S = 170

# Smoke mode: a tiny graph and short windows, so all three workloads run in
# seconds. It exercises every code path but its figures mean nothing.
SMOKE_FLAGS = ["--scale", "10", "--edge-factor", "8", "--sub-s", "0.25", "--round-s", "0.3"]
WORKLOADS = ["mine_tc", "mine_sym", "mine_4cc", "serve", "live"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally. A lock keeps concurrent
    runs in one checkout from building over each other."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"cannot build: '{needed}' is missing next to perfbench/ "
                 "(run from a full checkout of the repository)")
    if shutil.which("cmake") is None:
        fail("cannot build: cmake is not on PATH")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(os.path.join(BUILD, "build.log"), "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR])
            steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                          "--target", "pb_driver", "pgtool"])
            for cmd in steps:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
                if rc != 0:
                    log.flush()
                    with open(log.name) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail(f"build step failed: {' '.join(cmd)}")
    return (os.path.join(CMAKE_DIR, "pb_driver"),
            os.path.join(CMAKE_DIR, "probgraph", "pgtool"))


def source_digest():
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "n/a (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "n/a"


def load_spec():
    if not os.path.isfile(SPEC):
        return None
    with open(SPEC) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; seconds-long runs")
    args = ap.parse_args()

    driver, pgtool = build()
    spec = load_spec()
    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    spans = os.path.join(BUILD, "spans", f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pgtool", pgtool, "--work", work, "--spans", spans]
    if args.smoke:
        cmd += SMOKE_FLAGS
    # The driver and the pgtool processes it starts share one new process
    # group, so a timeout or an interrupt stops all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    # SIGTERM becomes an exception, so the handler below stops the group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        fail(f"driver exited with {proc.returncode} and no result")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    context["commit"] = git_commit()
    context["source_sha256"] = source_digest()

    declared = {}
    if spec is not None:
        section = "per_layer" if args.trace else "end_to_end"
        declared = {m["name"]: m for m in spec[section]}
        missing = [n for n in declared if n not in result["metrics"]]
        if missing and not args.trace:
            fail(f"driver did not measure: {', '.join(missing)}")
        # The one place unmeasured per-layer metrics are filled in: as 0,
        # and listed, so a reader can tell them from measured zeros.
        for name in missing:
            result["metrics"][name] = {"value": 0, "unit": declared[name]["unit"]}
        context["not_exercised"] = ",".join(missing) if missing else "none"
        if missing:
            context["not_exercised_why"] = (
                "this workload does not run the layer or query type these metrics "
                "measure (perfbench/README.md, per-layer metrics)")
        for name, m in result["metrics"].items():
            if name in declared and declared[name]["unit"] != m["unit"]:
                fail(f"{name}: driver unit {m['unit']} != declared {declared[name]['unit']}")
        result["metrics"] = {n: result["metrics"][n] for n in declared}

    print("context: " + json.dumps(context, sort_keys=True))
    for name, m in result["metrics"].items():
        better = declared.get(name, {}).get("better")
        direction = {"lower": "lower is better", "higher": "higher is better"}.get(
            better, "no direction (per-layer)")
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']:9s} {direction}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
