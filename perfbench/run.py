"""Benchmark entry point: builds the program and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-golden <workload> [--count <n>] [--deadline-ms <ms>]

Run from the repository root. The JVM prints each metric by name with its unit;
the last line of stdout is the result object
`{"correct", "attempted", "failed", "metrics"}`. Exits non-zero without a result
if the build, the run or its time limit fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

RESULT_MARK = "PERFBENCH_RESULT "
# A run must end within 180 s, or 900 s when it compiles; keep a margin for shutdown.
RUN_LIMIT_S = 170
BUILD_RUN_LIMIT_S = 880
JVM_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-XX:-UsePerfData",  # no hsperfdata file outside the checkout
    "--add-modules=jdk.incubator.vector",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "-Xss64m",
]


def git_sha() -> str:
    if not (build.ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def jvm_command(classes: Path, main_class: str, args: list) -> list:
    out = build.build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    heap = os.environ.get("SPARK_DRIVER_MEM", "4g")
    # A fixed-size heap, so GC behaviour does not depend on how far the heap has grown.
    return [build.java(), *JVM_OPTS, f"-Xms{heap}", f"-Xmx{heap}",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={build.BENCH_DIR / 'log4j2.properties'}",
            "-cp", f"{classes}{os.pathsep}{build.spark_jars()}/*", main_class, *args]


def run_jvm(cmd: list, limit_s: float) -> tuple:
    """Runs the JVM, echoing its stdout; returns (exit code, result line or None)."""
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    result = None
    deadline = time.monotonic() + limit_s
    try:
        import selectors
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise subprocess.TimeoutExpired(cmd, limit_s)
            if not sel.select(timeout=min(left, 1.0)):
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith(RESULT_MARK):
                result = line[len(RESULT_MARK):].strip()
            else:
                print(line, end="", flush=True)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit_s:.0f} s; stopped", file=sys.stderr)
        code, result = 124, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything the JVM left in its group
        except ProcessLookupError:
            pass
    return code, result


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-golden")
    ap.add_argument("--count", type=int)
    ap.add_argument("--deadline-ms", type=int)
    a = ap.parse_args()

    try:
        classes, digest, compiled = build.build(test=a.self_test)
        if a.self_test:
            cmd = jvm_command(classes, "perfbench.SelfTest", [])
        elif a.write_golden:
            extra = ["--seed", str(a.seed)]
            if a.count:
                extra += ["--count", str(a.count)]
            if a.deadline_ms:
                extra += ["--deadline-ms", str(a.deadline_ms)]
            cmd = jvm_command(classes, "perfbench.Main", [
                "--write-golden", a.write_golden, *extra,
                "--golden-dir", str(build.BENCH_DIR / "golden"),
                "--out-dir", str(build.build_dir())])
        else:
            if not a.workload:
                ap.error("--workload is required")
            cmd = jvm_command(classes, "perfbench.Main", [
                "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", a.trace,
                "--golden-dir", str(build.BENCH_DIR / "golden"),
                "--out-dir", str(build.build_dir()),
                "--git-sha", git_sha(), "--source-hash", digest])
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    limit = (BUILD_RUN_LIMIT_S if compiled else RUN_LIMIT_S) - (time.monotonic() - start)
    if a.self_test or a.write_golden:
        limit = 3600
    code, result = run_jvm(cmd, limit)
    if a.self_test or a.write_golden:
        return code
    if code != 0 or result is None:
        print(f"perfbench: run failed (exit {code}), no result", file=sys.stderr)
        return code or 1
    json.loads(result)  # refuse to print a malformed result
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
