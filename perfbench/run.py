"""Complaint-to-ranking benchmark for the Reptile engine.

    python3 perfbench/run.py --workload covid-issues --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the engine and the benchmark from source if needed
(see build.py), runs one workload and prints, as its last line, a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, the per-layer ones with
`--trace 1`. The line before it holds the run's details (environment,
input shape, tail percentile, hits, failures).

`--smoke` runs every workload at a tiny size in both modes and checks that
each prints every metric of BENCHMARK.json and passes the output check.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

import build

HEAP = "3g"
# Run-time JVM options Spark needs on Java 17 (as its launcher sets them).
JAVA_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]
RUN_TIMEOUT_S = 175


def run_java(classes, workload, seed, seconds, trace, smoke=False):
    """Runs one benchmark JVM; returns its stdout lines, or exits on failure."""
    out = build.OUT
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cp = [str(classes), f"{build.spark_jars()}/*"]
    duck = build.duckdb_jar()
    if duck:
        cp.append(str(duck))
    cmd = (["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}"] + JAVA_OPTS +
           ["-cp", os.pathsep.join(cp), "repro.perfbench.Bench",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--smoke", "1" if smoke else "0", "--out", str(out)])
    log = out / f"log-{workload}-trace{trace}.txt"
    with open(log, "w") as err:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=RUN_TIMEOUT_S, cwd=build.ROOT)
        except subprocess.TimeoutExpired:
            sys.exit(f"run: {workload} did not finish within {RUN_TIMEOUT_S} s (log: {log})")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = log.read_text().splitlines()[-30:]
        sys.exit(f"run: {workload} exited with code {done.returncode}\n" + "\n".join(tail))
    return lines


def metric_names():
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


# Runnable by name and covered by the smoke test, but left out of
# BENCHMARK.json: a run takes about 70 s, too long for a full comparison (see README).
EXTRA_WORKLOADS = ["compas-session"]


def smoke(classes):
    e2e, layers, workloads = metric_names()
    problems = []
    for w in workloads + EXTRA_WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            result = json.loads(run_java(classes, w, 1, 1, trace, smoke=True)[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} trace={trace}: output check failed")
            print(f"smoke {w} trace={trace}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main():
    # On SIGTERM, raise SystemExit so that subprocess.run kills and reaps the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    classes = build.build()
    if a.smoke:
        sys.exit(smoke(classes))
    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    for line in run_java(classes, a.workload, a.seed, a.seconds, a.trace):
        print(line)


if __name__ == "__main__":
    main()
