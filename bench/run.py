"""fedrank benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

Each run starts a fresh single-process child (bench/workloads.py) with every
BLAS and OpenMP pool at one thread, waits for it, prints every metric by
name with its unit and the environment it ran in, and ends with one JSON
line: correct, attempted, failed, metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  ``--workload all``
runs every workload untraced and traced and prefixes each metric with its
workload.  The program under test is ``src/fedrank`` of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
CHILD_TIMEOUT_S = 170

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in a fresh process; its result object."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} run printed no result")
    return json.loads(lines[-1])


def print_table(workload: str, result: dict) -> None:
    samples = result.get("samples", {})
    for name, m in result["metrics"].items():
        note = ""
        if name in samples:
            count, raw = samples[name]["n"], samples[name]["raw"]
            note = f"  (median of {count}, in reference seconds; wall clock {raw:.6f})"
        print(f"{workload:16s} {name:40s} {m['value']:>16.6f} {m['unit']}{note}")
    for name in result.get("missing", []):
        print(f"{workload:16s} {name:40s} {'missing':>16s}")
    print(f"{workload:16s} env {json.dumps(result['env'])}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "fedrank" / "__init__.py").is_file():
        print(f"error: no fedrank sources under {SOURCE}", file=sys.stderr)
        return 2

    runs = [(args.workload, args.trace)] if args.workload != "all" else \
        [(w, t) for w in names for t in (0, 1)]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in runs:
            result = run_child(workload, args.seed, args.seconds, trace)
            print_table(workload, result)
            prefix = f"{workload}." if args.workload == "all" else ""
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
