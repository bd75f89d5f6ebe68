#!/usr/bin/env python3
"""Build file of the engine benchmark.

Compiles, with the Scala compiler that ships in Spark's jars directory:
the engine (every file under src/main/scala), the brute-force reference
evaluator (src/test/scala/repro/util/BruteForce.scala) and the
benchmark's own sources (enginebench/src). Classes go to
.bench_build/enginebench/classes-<hash>, where <hash> covers every
compiled source, so an unchanged tree is not rebuilt.

    python3 enginebench/build.py      # prints the run-time classpath
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "enginebench"
SCALAC_FLAGS = ["-nowarn", "-usejavacp", "-encoding", "UTF-8"]


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """Spark's jars directory, from SPARK_HOME or the spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Scala compiler in {jars}")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = str(Path(home) / "bin" / "java") if home else shutil.which("java")
    if not exe or not os.access(exe, os.X_OK):
        raise BuildError("java not found: set JAVA_HOME or put java on PATH")
    return exe


def sources() -> list:
    main = ROOT / "src" / "main" / "scala"
    reference = ROOT / "src" / "test" / "scala" / "repro" / "util" / "BruteForce.scala"
    if not main.is_dir() or not reference.is_file():
        raise BuildError(f"engine sources not found under {ROOT / 'src'}")
    files = sorted(main.rglob("*.scala")) + [reference] + sorted((HERE / "src").glob("*.scala"))
    return files


def source_hash(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    h.update(" ".join(SCALAC_FLAGS).encode())
    return h.hexdigest()


def build() -> tuple:
    """Compile if needed; returns (classpath, source hash)."""
    jars = spark_jars()
    files = sources()
    digest = source_hash(files)
    classes = OUT / f"classes-{digest[:16]}"
    classpath = f"{classes}{os.pathsep}{jars / '*'}"
    if classes.is_dir():
        return classpath, digest
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = OUT / f"{classes.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    cmd = [java(), "-Xss16m", "-Xmx1g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", str(jars / "*"), "scala.tools.nsc.Main", *SCALAC_FLAGS, "-d", str(tmp),
           *[str(f) for f in files]]
    print(f"[enginebench] compiling {len(files)} sources", file=sys.stderr)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {done.returncode}")
    for old in OUT.glob("classes-*"):
        if old != tmp:
            shutil.rmtree(old, ignore_errors=True)
    os.rename(tmp, classes)
    return classpath, digest


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"[enginebench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
