"""Builds the benchmark: compiles the repository's main Scala sources
together with the benchmark's own sources (perfbench/src) with scalac,
against the jars of the local Spark distribution ($SPARK_HOME/jars, which
also carries the Scala compiler).

Usage, from the repository root:

    python3 perfbench/build.py [build-dir]

The classes go to <build-dir>/perfbench.jar (default .bench_build), which
run.py launches with Spark's own spark-submit. A build is skipped when the
sources are unchanged since the last one.
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]
BUILD_LIMIT_S = 800


def spark_home() -> pathlib.Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise SystemExit("build: set SPARK_HOME or put spark-submit on PATH")
        home = str(pathlib.Path(submit).resolve().parent.parent)
    if not (pathlib.Path(home) / "jars").is_dir():
        raise SystemExit(f"build: no Spark jars under {home}")
    return pathlib.Path(home)


def spark_submit() -> str:
    return str(spark_home() / "bin" / "spark-submit")


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(pathlib.Path(home) / "bin" / "java") if home else "java"


def sources() -> list:
    for d in SOURCE_DIRS:
        if not d.is_dir():
            raise SystemExit(f"build: source directory {d} is missing")
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def build(build_dir: pathlib.Path) -> pathlib.Path:
    """Compiles if needed and returns the jar."""
    srcs = sources()
    digest = hashlib.sha256()
    for p in srcs:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    stamp = digest.hexdigest()
    jar = build_dir / "perfbench.jar"
    stamp_file = build_dir / "perfbench.stamp"
    jars = spark_home() / "jars"
    if not (jar.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp):
        build_dir.mkdir(parents=True, exist_ok=True)
        jar.unlink(missing_ok=True)
        cmd = [java(), "-Xss8m", "-Xmx1g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
               "-nowarn", "-d", str(jar), "-classpath", f"{jars}/*"] + [str(p) for p in srcs]
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
        if done.returncode != 0:
            raise SystemExit(f"build: scalac failed with exit code {done.returncode}")
        stamp_file.write_text(stamp)
    return jar


if __name__ == "__main__":
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / ".bench_build"
    print(build(out.resolve()))
