"""Runs one workload of the Table-1 benchmark and prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload snowflake --seed 42 --seconds 15 --trace 0

Builds the program from source first if needed (see build.py), then runs
the benchmark program (perfbench/src/repro/perfbench/Main.scala) in one
JVM, launched with Spark's spark-submit. The last line of stdout is a
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Every raw sample,
the provenance and the Table-1 view of the run are written to
.bench_build/results/<workload>-seed<seed>-trace<trace>.json.

Everything the run writes stays under .bench_build in the checkout.
"""
import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

# The benchmark JVM is killed if it has not finished after this many seconds.
RUN_LIMIT_S = 170


def git_sha(root: pathlib.Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    root = build.ROOT
    build_dir = root / ".bench_build"
    jar = build.build(build_dir)

    work = build_dir / "work" / f"{a.workload}-{a.seed}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result_file = build_dir / "results" / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    cmd = [build.spark_submit(), "--class", "repro.perfbench.Main", "--driver-memory", "2g",
           "--driver-class-path", str(root / "src" / "main" / "resources"),
           "--driver-java-options", f"-Djava.io.tmpdir={tmp}", str(jar),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work-dir", str(work), "--result-file", str(result_file),
           "--git-sha", git_sha(root)]
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    out = None
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        print(f"run: no result within {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run: benchmark exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    lines = [ln for ln in out.splitlines() if ln.strip()]
    raw = json.loads(lines[-1]) if lines else {}
    # Report exactly the metrics BENCHMARK.json declares for this mode.
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if a.trace == "1" else "end_to_end"]
    measured = raw.get("per_layer" if a.trace == "1" else "end_to_end", {})
    missing = [m["name"] for m in wanted if not isinstance(measured.get(m["name"]), (int, float))]
    if missing:
        print(f"run: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    started = time.time()
    code = main()
    print(f"run: {time.time() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
