"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. It starts the workload in a fresh Python
process with the BLAS thread count fixed in that process's environment,
prints the process's thread environment, each correctness check and each
metric with its unit from BENCHMARK.json, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
# One BLAS thread. With two, whole processes on this class of 2-CPU shared host
# served B=1 requests several times slower than others (a bimodal p50), which
# no number of repetitions inside one run can average out; one thread keeps
# every process alike. The thread count is read back and printed.
BLAS_THREADS = 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "tcn_anticipation" / "__init__.py").is_file():
        print(f"error: no tcn_anticipation package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    report = json.loads(lines[-1])

    missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]]
    if missing:
        print(f"error: workload reported no {', '.join(missing)}", file=sys.stderr)
        return 4
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(report["env"]))
    print("info " + json.dumps(report["info"]))
    for name, ok, detail in report["checks"]:
        print(f"check {name} {'pass' if ok else 'FAIL'}: {detail}")
    print(f"operations attempted {report['attempted']} failed {report['failed']}")
    metrics = {}
    for m in wanted:
        value = report["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
