#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark. Run from the repository root:

    python3 e2ebench/selftest.py

1. The same seed gives the same cell set / query stream; another seed
   gives a different one (lrdq_e2ebench --dump-inputs).
2. A doctored bracket or estimate makes the run exit non-zero.
3. Every workload and metric name a run prints is declared in
   BENCHMARK.json (run.py refuses a result whose names differ).
4. No op of any workload fails (the seeded draws hold only cells whose
   default-configuration solve ends ok).
Exits 1 when any check fails.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build + launcher)

WORKLOADS = ["solve_cold", "sweep_grid", "serve_hit"]


def main() -> int:
    exe = run.build(run.ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    failures = []

    def check(name, ok):
        print(("PASS " if ok else "FAIL ") + name, flush=True)
        if not ok:
            failures.append(name)

    def dump(workload, seed):
        return subprocess.run([str(exe), "--workload", workload, "--seed", str(seed),
                               "--seconds", "10", "--dump-inputs"],
                              check=True, capture_output=True, text=True).stdout

    def bench(workload, *extra):
        return subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                               "--seed", "3", "--seconds", "1", *extra],
                              capture_output=True, text=True, cwd=run.ROOT)

    for w in WORKLOADS:
        a, b, c = dump(w, 1), dump(w, 1), dump(w, 2)
        check(f"{w}: same seed, same inputs", a == b and a != "")
        check(f"{w}: other seed, other inputs", a != c)

    for w, doctor in [("solve_cold", "bracket"), ("sweep_grid", "bracket"),
                      ("serve_hit", "estimate")]:
        p = bench(w, "--doctor", doctor)
        gated = p.returncode == 1 and '"correct": false' in p.stdout
        check(f"{w}: doctored {doctor} fails the gate and exits non-zero", gated)

    for w in WORKLOADS:
        for trace in ("0", "1"):
            p = bench(w, "--trace", trace)
            check(f"{w}: --trace {trace} names match BENCHMARK.json", p.returncode == 0)
            if p.returncode != 0:
                sys.stderr.write(p.stderr[-2000:])
            elif trace == "0":
                result = json.loads(p.stdout.strip().splitlines()[-1])
                check(f"{w}: no op fails", result["failed"] == 0 and result["attempted"] > 0)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
