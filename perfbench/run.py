#!/usr/bin/env python3
"""Distributed NE benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload pokec-l0.1 --seed 12 --seconds 20 --trace 0

Builds the repository's own code and the harness from source with sbt (once
per checkout; later runs reuse the build while the sources are unchanged),
then runs the harness in a fresh JVM. The last line of standard output is
the result object; the exit code is 0 only when every output check passed.
See README.md in this directory for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
TARGET = HERE / "target"
LAUNCH = TARGET / "launch.txt"
STAMP = TARGET / "launch.stamp"

# A run must end within 180 s; the first run in a checkout also builds.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# Driver heap for the harness JVM; fixed so that GC behaviour is comparable
# between runs and commits.
HEAP = "2g"

# Everything the build reads: the program's build and sources, and ours.
SOURCE_ROOTS = [REPO / "build.sbt", REPO / "project", REPO / "src" / "main",
                HERE / "build.sbt", HERE / "project", HERE / "src" / "main"]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and, on timeout, kills the whole
    group (sbt starts a JVM of its own) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def sources_digest():
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        files = [root] if root.is_file() else sorted(
            p for p in root.rglob("*")
            if p.is_file() and "target" not in p.relative_to(root).parts)
        for p in files:
            h.update(str(p.relative_to(REPO)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def build():
    digest = sources_digest()
    if LAUNCH.is_file() and STAMP.is_file() and STAMP.read_text() == digest:
        return
    log("building the program and the harness with sbt")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "launchFile"]
    code, _ = run_group(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr,
                        stderr=sys.stderr)
    if code != 0 or not LAUNCH.is_file():
        sys.exit(f"perfbench: build failed (sbt exit code {code})")
    STAMP.write_text(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="graph generator seed (default: the dataset catalogue's)")
    ap.add_argument("--seconds", type=int, default=20, help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    args = ap.parse_args()

    missing = [p for p in (REPO / "build.sbt", REPO / "src" / "main" / "scala") if not p.exists()]
    if missing:
        sys.exit(f"perfbench: not inside the repository (missing {', '.join(map(str, missing))})")
    build()

    classpath, *opens = LAUNCH.read_text().splitlines()
    spark_local = TARGET / "spark-local"
    tmp = TARGET / "tmp"
    spark_local.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    seed_name = "default" if args.seed is None else args.seed
    trace_out = TARGET / "traces" / f"{args.workload}-seed{seed_name}.jsonl"
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *opens,
           f"-Dlog4j.configurationFile={HERE / 'log4j2.properties'}",
           "-Dspark.driver.host=127.0.0.1", f"-Dspark.local.dir={spark_local}",
           f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", str(trace_out)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    code, stdout = run_group(cmd, RUN_TIMEOUT_S, cwd=REPO, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True)

    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(stdout)
        sys.exit(f"perfbench: the harness printed no result (exit code {code})")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if args.trace:
        log(f"spans written to {trace_out}")
    sys.exit(code if code else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
