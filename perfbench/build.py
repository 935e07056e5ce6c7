"""Build file of the benchmark.

Compiles the program's sources (`src/main/scala`) together with the benchmark's own
(`perfbench/src/main/scala`, plus `perfbench/src/test/scala` for the self-tests) with
the Scala compiler that ships in Spark's `jars/` directory. Classes go to
`<build dir>/classes-<source hash>/`, so a build is reused until a source changes.

Usage: python3 perfbench/build.py [--test]
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class BuildError(Exception):
    pass


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def spark_jars() -> Path:
    """Spark's jar directory: `$SPARK_HOME/jars`, else next to `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found "
                         "(set SPARK_HOME)")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    if exe is not None and exe.is_file():
        return str(exe)
    found = shutil.which("java")
    if not found:
        raise BuildError("no java found (set JAVA_HOME)")
    return found


def sources(test: bool) -> list:
    program = ROOT / "src" / "main" / "scala"
    if not program.is_dir():
        raise BuildError(f"program sources not found: {program}")
    dirs = [program, BENCH_DIR / "src" / "main" / "scala"]
    if test:
        dirs.append(BENCH_DIR / "src" / "test" / "scala")
    files = sorted(p for d in dirs for p in d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def source_hash(files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(test: bool = False) -> tuple:
    """Compiles if needed; returns (classes dir, source hash, whether it compiled)."""
    files = sources(test)
    digest = source_hash(files)
    out = build_dir()
    classes = out / f"classes-{digest}"
    if (classes / "BUILD_OK").is_file():
        return classes, digest, False
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix="classes-", dir=out))
    jars = spark_jars()
    cp = f"{jars}/*"
    cmd = [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", cp, "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-classpath", cp, "-d", str(staging)]
    cmd += [str(f) for f in files]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    if proc.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    (staging / "BUILD_OK").write_text(digest + "\n")
    for stale in out.glob("classes-*"):
        if stale != staging:
            shutil.rmtree(stale, ignore_errors=True)
    staging.rename(classes)
    return classes, digest, True


if __name__ == "__main__":
    try:
        where, digest, _ = build(test="--test" in sys.argv[1:])
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
    print(f"built {digest} in {where}")
