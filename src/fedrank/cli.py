"""Command-line runner: ``run`` an experiment, sweep the failure ``bound``,
or print the ``commcost`` table for an architecture."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import ARCH_PRESETS, MIB, comm_cost, sweep_bound
from .config import config_to_flat_dict, parse_config
from .protocols import RoundRecord, build_environment, run_experiment

OUT_DIR_ENV = "FEDRANK_OUT_DIR"

CSV_HEADER = "round,mean_acc,std_acc,min_acc,max_acc,upload_MiB,download_MiB"

# Fixed rows of the cost table: (label, algorithm, fraction argument).
COST_TABLE_ROWS = [
    ("fedavg", "fedavg", None),
    ("fsl", "fsl", None),
    ("sfsl50", "sparse_fsl", 0.5),
    ("sfsl10", "sparse_fsl", 0.1),
    ("signsgd", "signsgd", None),
    ("topk50", "topk", 0.5),
    ("topk10", "topk", 0.1),
]


def _f(x: float) -> str:
    return f"{x:.6f}"


def _json_safe(x: float) -> float | None:
    v = float(_f(x))
    return v if math.isfinite(v) else None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def records_to_csv(records: list[RoundRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.round), _f(r.mean_acc), _f(r.std_acc), _f(r.min_acc),
            _f(r.max_acc), _f(r.upload_bits / MIB), _f(r.download_bits / MIB),
        ]))
    return "\n".join(lines) + "\n"


def _blas() -> str:
    """numpy's BLAS build as ``name version``, or "unknown" where numpy
    cannot report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy without ``mode``, a build without the entry
        return "unknown"


def _parsed(key: str, conv, items: list[str]) -> list:
    """``conv`` of each item; a bad item is a ValueError naming ``key``."""
    try:
        return [conv(v) for v in items]
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    env = build_environment(cfg)  # loads and partitions the data before any output
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    manifest_path = out_dir / "manifest.json"
    records_path = out_dir / "records.jsonl"
    summary_path = out_dir / "summary.csv"
    sizes = [len(tr) + len(te) for tr, te in zip(env.shards.train, env.shards.test)]
    manifest = {
        "config": config_to_flat_dict(cfg),
        "version": __version__,
        "blas": _blas(),  # every float64 product runs on it (README "Numerics")
        # The partition's gammas come from numpy's log and cos.
        "shards": {"undersized": env.shards.undersized, "min": min(sizes),
                   "median": statistics.median(sizes), "max": max(sizes),
                   "python": platform.python_version(), "numpy": np.__version__},
        "started": _now(),
        "finished": None,
        "outputs": {"records": records_path.name, "summary": summary_path.name},
    }

    def finish(**fields) -> None:
        manifest.update(fields, finished=_now())
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    def write_record(*point) -> None:  # on_eval(record, state)
        row = asdict(point[0])
        for key in ("mean_acc", "std_acc", "min_acc", "max_acc"):
            row[key] = _json_safe(row[key])
        records_file.write(json.dumps(row) + "\n")

    out_dir.mkdir(parents=True, exist_ok=True)
    # Opened before the manifest is written, so a failure here leaves no
    # manifest, and emptied only after it is, so a failed manifest write
    # leaves an earlier run's records as they were.
    with open(records_path, "a", buffering=1) as records_file:  # a line is flushed as it ends
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        records_file.truncate(0)
        try:
            records = run_experiment(cfg, env=env, on_eval=write_record)
            summary_path.write_text(records_to_csv(records))
        except BaseException as exc:  # the manifest says how the run ended
            finish(error=f"{type(exc).__name__}: {exc}")
            raise
    finish()
    print(f"wrote {summary_path} ({len(records)} eval points)")
    return 0


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def bound_csv(n: int, p_min: float, p_max: float, p_steps: int,
              alphas: list[float]) -> str:
    ps = [p_min if p_steps == 1 else p_min + (p_max - p_min) * i / (p_steps - 1)
          for i in range(p_steps)]
    rows = [f"{_f(alpha)},{_f(p)},{_f(bound)}" for alpha, p, bound in sweep_bound(n, ps, alphas)]
    return "\n".join(["alpha,p,bound"] + rows) + "\n"


def cmd_bound(args: argparse.Namespace) -> int:
    alphas = _parsed("alpha", float, [a for a in args.alpha.split(",") if a.strip() != ""])
    if not alphas:
        raise ValueError("alpha list is empty")
    if args.p_steps < 1 or not (0 < args.p_min <= args.p_max < 1):
        raise ValueError("p grid must satisfy 0 < p_min <= p_max < 1 and p_steps >= 1")
    _emit(bound_csv(args.n, args.p_min, args.p_max, args.p_steps, alphas), args.out)
    return 0


def commcost_csv(arch_name: str, counts: list[int]) -> str:
    lines = ["arch,algorithm,upload_MiB,download_MiB"]
    for label, algorithm, frac in COST_TABLE_ROWS:
        report = comm_cost(counts, algorithm, frac)
        lines.append(f"{arch_name},{label},{_f(report.upload_mib)},{_f(report.download_mib)}")
    return "\n".join(lines) + "\n"


def cmd_commcost(args: argparse.Namespace) -> int:
    if bool(args.preset) == bool(args.counts):
        raise ValueError("provide exactly one of --preset or --counts")
    if args.counts:
        name, counts = "custom", _parsed("counts", int, args.counts.split(","))
    elif args.preset in ARCH_PRESETS:
        name, counts = args.preset, ARCH_PRESETS[args.preset]
    else:
        raise ValueError(f"unknown preset {args.preset!r}; choices: "
                         f"{', '.join(sorted(ARCH_PRESETS))}")
    _emit(commcost_csv(name, counts), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedrank",
                                     description="Federated rank-vote learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True, help="path to the key=value config")
    run.add_argument("--out", default=None,
                     help=f"output directory (default: ${OUT_DIR_ENV} or .)")
    run.set_defaults(func=cmd_run)

    bound = sub.add_parser("bound", help="sweep the vote failure-probability bound")
    bound.add_argument("--n", type=int, required=True, help="clients per round")
    bound.add_argument("--p-min", type=float, required=True)
    bound.add_argument("--p-max", type=float, required=True)
    bound.add_argument("--p-steps", type=int, required=True)
    bound.add_argument("--alpha", required=True,
                       help="comma-separated malicious fractions")
    bound.add_argument("--out", default=None, help="CSV file (default stdout)")
    bound.set_defaults(func=cmd_bound)

    cost = sub.add_parser("commcost", help="per-round communication cost table")
    cost.add_argument("--preset", default=None,
                      help=f"reference architecture: {', '.join(sorted(ARCH_PRESETS))}")
    cost.add_argument("--counts", default=None,
                      help="comma-separated layer parameter counts")
    cost.add_argument("--out", default=None, help="CSV file (default stdout)")
    cost.set_defaults(func=cmd_commcost)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a bad input or output: one line, exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
