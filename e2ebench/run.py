#!/usr/bin/env python3
"""Build lrdfluid from source and run one end-to-end benchmark workload.

    python3 e2ebench/run.py --workload solve_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); build output goes to stderr. The last stdout line is the
result object of lrdq_e2ebench, passed through only after its workload and
metric names have been checked against BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("e2ebench: no lrdfluid sources next to the benchmark; nothing to build")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "lrdq_e2ebench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr, cwd=ROOT)
    return build_dir / "lrdq_e2ebench"


def check_names(result: dict, workload: str, trace: bool) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"e2ebench: workload {workload} is not in BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        sys.exit(f"e2ebench: printed metrics {sorted(printed.items())} differ from "
                 f"BENCHMARK.json {sorted(declared.items())}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--doctor", choices=["bracket", "estimate"])
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = build(build_dir)
    cmd = [str(exe), "--workload", args.workload, "--seed", args.seed, "--seconds",
           args.seconds, "--trace", args.trace,
           "--work-dir", os.path.relpath(build_dir / "work", ROOT)]
    if args.doctor:
        cmd += ["--doctor", args.doctor]
    # Own process group, so a timeout also stops the daemon the run started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode == 0:
        check_names(json.loads(lines[-1]), args.workload, args.trace == "1")
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
