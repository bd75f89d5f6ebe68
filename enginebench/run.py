#!/usr/bin/env python3
"""Engine benchmark: one command, run from the repository root.

    python3 enginebench/run.py --workload so-q1-direct --seed 1 --seconds 30 --trace 0

Builds the engine and the benchmark from source (enginebench/build.py),
then runs one JVM that generates the workload's streams from --seed with
Spark (local[k], k <= nproc), checks the engine's answers against the
brute-force evaluator, and replays the streams closed-loop for --seconds.
Workloads, stream sizes and the plan of each run are defined in
enginebench/src/EngineBench.scala.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json, measured untraced; with --trace 1 they are its
per_layer metrics, from a separate traced run. The line before it records
the environment (nproc, heap, JDK, source hash, Spark master, seed and
stream parameters). Human-readable progress goes to stderr; spans of the
first stream's traced replay go to .bench_build/enginebench/runs/.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import build  # noqa: E402

RUN_DIR = build.OUT / "runs"
TIME_LIMIT_S = 170
SPARK_CORES = min(2, os.cpu_count() or 1)
JVM_FLAGS = [
    "-Xms2g", "-Xmx2g", "-Xmn256m", "-Xss64m", "-XX:-UsePerfData",
    f"-Djava.io.tmpdir={RUN_DIR / 'tmp'}",
    f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
    "-Dspark.driver.host=127.0.0.1",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "--enable-native-access=ALL-UNNAMED",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def fail(msg: str) -> int:
    print(f"[enginebench] {msg}", file=sys.stderr)
    return 1


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        classpath, digest = build.build()
    except (build.BuildError, OSError) as e:
        return fail(f"build failed: {e}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload}")

    (RUN_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [build.java(), *JVM_FLAGS, "-cp", classpath, "enginebench.EngineBench",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spark-cores", str(SPARK_CORES), "--out", str(RUN_DIR),
           "--source-sha", digest]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail(f"run exceeded {TIME_LIMIT_S} s")
    if proc.returncode != 0:
        return fail(f"benchmark JVM exited with code {proc.returncode}")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        return fail("benchmark JVM printed no result")
    res = json.loads(lines[-1][len("RESULT "):])

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = res["metrics"].get(m["name"])
        if got is None and m["name"].startswith("op."):
            # Operator metrics cover the nodes of every workload's plan; a
            # node that is not in this workload's plan did no work.
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            return fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            return fail(f"metric {m['name']} measured in {got['unit']}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    env = dict(res["env"], git_sha=git_sha(), wall_s=round(time.monotonic() - started, 3))
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
