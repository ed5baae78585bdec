#!/usr/bin/env python3
"""The libstosched benchmark: build, time set-up, run one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the library plus stosched_perfbench) under $CARGO_TARGET_DIR
(default .bench_build); later calls only rebuild what changed.

--trace 0 prints every end-to-end metric, --trace 1 every per-layer metric
(see BENCHMARK.json and README.md). Human-readable lines come first; the
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. failed_frac is failed / attempted. The exit code is
non-zero when a correctness check failed, the build is not a plain Release
build, or the library sources are missing.

--selftest runs every workload in a tiny mode and asserts that every metric
of BENCHMARK.json is printed with its unit, that each layer reads zero on
the workload that bypasses it, and that a deliberately wrong expected value
makes the checks fail.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mg1-crn", "network-backlog", "online-lp")
# Set-up is a few milliseconds of process start, so it is launched many
# times and the median kept.
SETUP_LAUNCHES = 21
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: no libstosched sources next to perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target",
                   "stosched_perfbench", "-j", "2"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(build_dir, "stosched_perfbench")


def bench_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"  # the engine on one thread
    for var in ("STOSCHED_PROGRESS", "STOSCHED_TRACE_FILE",
                "STOSCHED_BENCH_JSON"):
        env.pop(var, None)
    return env


def setup_seconds(exe, workload, seed, env):
    """Median time from process launch to the first experiment being ready.

    Each launch is divided by the host speed the process measures right
    after set-up, like every other timing of the benchmark."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [exe, "--workload", workload, "--seed", str(seed), "--seconds",
             "0", "--trace", "0", "--setup-only"],
            stdout=subprocess.PIPE, env=env)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        rest = proc.stdout.read().split()
        if proc.wait() != 0 or not line.startswith(b"ready") or \
                len(rest) != 2 or rest[0] != b"speed":
            raise SystemExit("perfbench: set-up launch failed")
        times.append((t1 - t0) / float(rest[1]))
    return statistics.median(times), len(times)


def measure(exe, workload, seed, seconds, trace, tiny=False, inject=False,
            echo=True):
    """One run of the benchmark program; returns (result dict, exit code).

    The result is None when the program printed no result line."""
    env = bench_env()
    setup = None
    if trace == 0:
        setup = setup_seconds(exe, workload, seed, env)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if inject:
        cmd.append("--inject-wrong")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                          timeout=RUN_TIMEOUT_S)
    raw = None
    for line in proc.stdout.decode().splitlines():
        if line.startswith("RESULT "):
            raw = json.loads(line[len("RESULT "):])
        elif echo:
            print(line)
    if raw is None:
        return None, proc.returncode or 1
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in raw["metrics"].items()}
    if setup is not None:
        value, launches = setup
        metrics["setup_s"] = {"value": value, "unit": "s"}
        if echo:
            print("metric %-34s %16.9g %-12s (%d launches, median)"
                  % ("setup_s", value, "s", launches))
    result = {"correct": raw["correct"] and proc.returncode == 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": dict(sorted(metrics.items()))}
    return result, proc.returncode


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = build()
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            log("selftest FAILED: " + what)

    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res, rc = measure(exe, workload, 1, 1, trace, tiny=True,
                              echo=False)
            tag = "%s --trace %d" % (workload, trace)
            expect(res is not None and rc == 0 and res["correct"],
                   tag + ": runs and passes its checks")
            if res is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, tag + ": prints exactly the metrics of "
                   "BENCHMARK.json with their units")
            value = {k: v["value"] for k, v in res["metrics"].items()}
            if trace == 0:
                expect(all(value.get(k, 0) > 0 for k in want),
                       tag + ": every end-to-end metric is non-zero")
            elif workload == "online-lp":
                expect(value.get("des.events") == 0 and
                       value.get("queueing.calls") == 0 and
                       value.get("dist.draws") == 0,
                       tag + ": the DES layers are bypassed")
                expect(value.get("lp.solves", 0) > 0,
                       tag + ": the LP does the work")
            else:
                expect(value.get("lp.solves") == 0 and
                       value.get("online.jobs") == 0,
                       tag + ": the LP and online layers are bypassed")
                expect(value.get("des.events", 0) > 0 and
                       value.get("queueing.busy_s", 0) > 0,
                       tag + ": the DES layers do the work")
        res, rc = measure(exe, workload, 1, 1, 0, tiny=True, inject=True,
                          echo=False)
        expect(rc != 0 and res is not None and not res["correct"] and
               res["failed"] > 0,
               workload + ": a wrong expected value fails the checks")
    if problems:
        log("selftest: %d problem(s)" % len(problems))
        return 1
    print("selftest: PASS (%d workloads)" % len(WORKLOADS))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    exe = build()
    result, rc = measure(exe, args.workload, args.seed, args.seconds,
                         args.trace)
    if result is None:
        log("perfbench: the benchmark program printed no result (exit %d)"
            % rc)
        return rc
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
