"""One benchmark run of one workload; run.py starts it as a fresh process.

    python3 bench/workloads.py --workload desk-fsl --seed 1 --seconds 25 --trace 0

Prints one JSON line: correct, attempted, failed, metrics, samples, missing
and env.  A traced run also writes its spans to .bench_out/.
Every call into fedrank goes through a module attribute looked up at call
time, so the wrappers that spans.py installs see it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from fedrank import analytics, cli, protocols, ranking, rng
from fedrank.adversary import AttackConfig, AttackKind
from fedrank.nn import LayerSpec, SgdConfig

import reference
import spans

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
SPANS_DIR = Path(__file__).resolve().parent.parent / ".bench_out"

# The SGD settings tests/test_acceptance.py uses for each algorithm.
FSL_SGD = SgdConfig(0.4, 0.9, 1e-4, 8)
DENSE_SGD = SgdConfig(0.01, 0.9, 1e-4, 8)

# The workload seed picks one of VARIANTS blob separations.  Partition,
# client sampling and malicious ids depend only on the pinned experiment
# seed, so every variant does the same amount of work on different data,
# and variant 0 is the acceptance suite's desk data exactly.
VARIANTS = 8
EXPERIMENT_SEED = 2024

SETUP_REPEATS = 7
MIN_REPEATS = 3  # timed operations per run, even past --seconds

# wire-lenet: lenet-mnist's layers without the 1,605,632-edge one, which the
# quadratic codec cannot encode in a run's time.
LENET_LAYERS = [288, 18432, 1280]
WIRE_CLIENTS = 25
WIRE_SPARSITY = 0.1
WIRE_POOL = 4  # distinct rounds of client rankings made at set-up

# The reference kernel parts (reference.py) that do the kind of work each
# workload spends its time on: per-call overhead; mask_layer's argsorts; the
# n x n x d krum distances in new pages; the Python big-integer codec.
GAUGE_PARTS = {
    "desk-fsl": ("python", "small_numpy"),
    "mid-fsl": ("python", "argsort"),
    "mid-krum-poison": ("small_numpy", "fresh_pages"),
    "wire-lenet": ("python", "bigint"),
}

# Functions whose calls and self time are reported per layer.
LAYERS = [
    "fedrank.nn:mask_layer",
    "fedrank.nn:ep_forward",
    "fedrank.nn:ep_backward",
    "fedrank.nn:sgd_step",
    "fedrank.nn:evaluate",
    "fedrank.nn:dense_evaluate",
    "fedrank.nn:dense_weight_grads",
    "fedrank.nn:Supernetwork.from_seed",
    "fedrank.nn:Supernetwork.reorder_all_scores",
    "fedrank.nn:Supernetwork.score_rankings",
    "fedrank.rng:RngStream.shuffle",
    "fedrank.data:gen_blobs",
    "fedrank.data:dirichlet_partition",
    "fedrank.aggregation:multi_krum_select",
    "fedrank.aggregation:average",
    "fedrank.adversary:craft_opt_poison",
    "fedrank.ranking:vote",
    "fedrank.ranking:sparse_vote",
    "fedrank.ranking:encode_entries",
    "fedrank.ranking:decode_entries",
]

# Outermost calls into these functions make up the per-phase split: set-up,
# client training (benign and malicious), vote or aggregation, evaluation.
PHASES = {
    "fedrank.protocols:build_environment": "setup",
    "fedrank.protocols:fsl_client_update": "train",
    "fedrank.protocols:fedavg_client_update": "train",
    "fedrank.adversary:craft_rank_poison": "train",
    "fedrank.adversary:craft_scale_attack": "train",
    "fedrank.adversary:craft_opt_poison": "train",
    "fedrank.ranking:vote_network": "aggregate",
    "fedrank.ranking:vote": "aggregate",
    "fedrank.ranking:sparse_vote": "aggregate",
    "fedrank.aggregation:average": "aggregate",
    "fedrank.aggregation:trimmed_mean": "aggregate",
    "fedrank.aggregation:multi_krum": "aggregate",
    "fedrank.aggregation:sign_majority": "aggregate",
    "fedrank.protocols:_evaluate_ranking": "eval",
    "fedrank.protocols:_evaluate_weights": "eval",
}
PHASE_NAMES = ("setup", "train", "aggregate", "eval")

END_TO_END_UNITS = {"uploads_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for target in LAYERS:
        name = spans.span_name(target)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for phase in PHASE_NAMES:
        units[f"protocols.{phase}_s"] = "s"
    units["protocols.phase_coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["ranking.wire_bytes"] = "bytes"
    units["analytics.comm_cost_bytes"] = "bytes"
    return units


def _blobs(dims: int, per_class: int, variant: int) -> protocols.DatasetSpec:
    return protocols.DatasetSpec(kind="blobs", blob_classes=10, blob_dims=dims,
                                 blob_samples_per_class=per_class, blob_cluster_std=2.0,
                                 blob_separation=8.0 + 0.5 * variant)


def training_config(workload: str, variant: int) -> protocols.ExperimentConfig:
    common = dict(local_epochs=2, subnet_fraction=0.5, dirichlet_alpha=1.0,
                  seed=EXPERIMENT_SEED)
    mid = [LayerSpec(784, 200, "relu"), LayerSpec(200, 10, "identity")]
    if workload == "desk-fsl":
        cfg = protocols.ExperimentConfig(
            algorithm=protocols.Algorithm.FSL, rounds=10, eval_every=10, sgd=FSL_SGD,
            num_clients=100, clients_per_round=25,
            architecture=[LayerSpec(20, 40, "relu"), LayerSpec(40, 10, "identity")],
            dataset=_blobs(20, 200, variant), **common)
    elif workload == "mid-fsl":
        # 20 clients, not 100: a 100-client round evaluates 100 test sets and
        # takes ~7 s, too long a unit to time steadily on a shared host.
        cfg = protocols.ExperimentConfig(
            algorithm=protocols.Algorithm.FSL, rounds=1, eval_every=1, sgd=FSL_SGD,
            num_clients=20, clients_per_round=5, architecture=mid,
            dataset=_blobs(784, 50, variant), **common)
    elif workload == "mid-krum-poison":
        cfg = protocols.ExperimentConfig(
            algorithm=protocols.Algorithm.FEDAVG, aggregator=protocols.Aggregator.MULTI_KRUM,
            attack=AttackConfig(0.2, AttackKind.OPT_POISON, gamma_iters=20),
            rounds=1, eval_every=1, sgd=DENSE_SGD, num_clients=100, clients_per_round=25,
            architecture=mid, dataset=_blobs(784, 200, variant), **common)
    else:
        raise ValueError(f"{workload!r} is not a training workload")
    cfg.validate()
    return cfg


TRAINING = ("desk-fsl", "mid-fsl", "mid-krum-poison")
WORKLOADS = TRAINING + ("wire-lenet",)


def summary_sha256(records) -> str:
    return hashlib.sha256(cli.records_to_csv(records).encode()).hexdigest()


class Counter:
    """Operations attempted and failed; an exception counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def call(self, fn, *args):
        """Run one operation; on an exception log it, count it and return None."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.check(False)
            return None


def _plain(fn, *args):
    """A timer like ``reference.Gauge.timed`` that runs no reference kernel,
    for warm-ups, the traced run and the untraced repeats it is compared with."""
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start, None


def _repeat_until(seconds: float, minimum: int, op) -> list:
    """Run ``op`` at least ``minimum`` times, then while another run of the
    last length still fits in ``seconds``."""
    results, start = [], time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(op())
        last = time.perf_counter() - before
        if len(results) >= minimum and time.perf_counter() - start + last > seconds:
            return results


Timings = list[tuple[float, float]]  # (wall, machine slowdown) per repeat


def _reference_s(timings: Timings) -> float:
    """Median wall time of one piece in reference seconds (see reference.py)."""
    return statistics.median(wall / slowdown for wall, slowdown in timings)


def _estimate(work: float, pieces: list[tuple[int, Timings]]) -> tuple:
    """(rate, samples, raw rate) of ``work`` per second.

    One unit of work is made of ``count`` runs of each timed piece.  ``rate``
    prices every piece at its median in reference seconds; ``raw`` at its
    median wall time, which moves with the load other tenants put on the host.
    """
    scaled = sum(count * _reference_s(timings) for count, timings in pieces)
    raw = sum(count * statistics.median(w for w, _ in timings) for count, timings in pieces)
    return work / scaled, sum(len(timings) for _, timings in pieces), work / raw


def _peak_rss_mib() -> float:
    """The child's peak RSS so far.  Runs take it after one set-up and one
    unit and before the reference kernel's arrays exist, so it is fedrank's
    peak for the workload."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median(timings: Timings) -> tuple:
    """(median in reference seconds, samples, raw median) of set-up times."""
    return (_reference_s(timings), len(timings),
            statistics.median(w for w, _ in timings))


# --- training workloads ------------------------------------------------------


def _train_once(cfg, env, golden: str, counter: Counter, timer):
    """One run_experiment; (wall, slowdown), or None if it raised."""
    out = counter.call(timer, lambda: protocols.run_experiment(cfg, workers=1, env=env))
    if out is None:
        return None
    records, wall, slowdown = out
    counter.check(summary_sha256(records) == golden)
    return wall, slowdown


def _setups(timer, make, *args) -> tuple[Timings, object]:
    """Set up SETUP_REPEATS times; the timings and the last result."""
    timings = []
    for _ in range(SETUP_REPEATS):
        made, wall, slowdown = timer(make, *args)
        timings.append((wall, slowdown))
    return timings, made


def run_training(workload: str, seed: int, seconds: float, trace: bool, counter: Counter):
    variant = seed % VARIANTS
    cfg = training_config(workload, variant)
    golden = json.loads(GOLDEN_PATH.read_text())[workload][variant]
    uploads = cfg.rounds * cfg.clients_per_round
    env = protocols.build_environment(cfg)
    _train_once(cfg, env, golden, counter, _plain)  # warm-up, checked but not timed
    if not trace:
        peak = _peak_rss_mib()
        gauge = reference.Gauge(GAUGE_PARTS[workload])
        setups, env = _setups(gauge.timed, protocols.build_environment, cfg)
        timings = [t for t in _repeat_until(
            seconds, MIN_REPEATS, lambda: _train_once(cfg, env, golden, counter, gauge.timed))
            if t is not None]
        return {"uploads_per_s": _estimate(uploads, [(1, timings)]),
                "setup_s": _median(setups)}, peak

    # Untraced repeats leave time for the traced one, which does the same work.
    setups, env = _setups(_plain, protocols.build_environment, cfg)
    walls = [t[0] for t in _repeat_until(
        seconds / 2, MIN_REPEATS, lambda: _train_once(cfg, env, golden, counter, _plain))
        if t is not None]
    tracer = spans.Tracer()
    with spans.traced(tracer, LAYERS + list(PHASES)) as missing:
        start = time.perf_counter()
        traced_env = counter.call(protocols.build_environment, cfg)
        if traced_env is not None:
            _train_once(cfg, traced_env, golden, counter, _plain)
        traced_wall = time.perf_counter() - start
    baseline = statistics.median(w for w, _ in setups) + statistics.median(walls)
    comm = uploads * (env.cost.upload_bits + env.cost.download_bits) / 8
    return tracer, missing, traced_wall, baseline, {"ranking.wire_bytes": 0,
                                                    "analytics.comm_cost_bytes": comm}


# --- wire-lenet --------------------------------------------------------------


def wire_inputs(seed: int) -> list[list[list[np.ndarray]]]:
    """Client rankings per pooled round: [round][client][layer]."""
    return [[[ranking.argsort_ranking(rng.derive(seed, [r, c, li]).uniform(n))
              for li, n in enumerate(LENET_LAYERS)]
             for c in range(WIRE_CLIENTS)]
            for r in range(WIRE_POOL)]


def _encoded_length(count: int, n: int) -> int:
    return -(-ranking.rank_bit_width(n) * count // 8)


def wire_round(clients: list[list[np.ndarray]], counter: Counter, timer
               ) -> tuple[int, Timings, tuple[float, float]]:
    """One round on the wire: (bytes encoded, each upload's timing, the
    server's timing), each timing a (wall, slowdown) pair from ``timer``.

    Every client uploads its full ranking and its s-suffix for each layer,
    which the server decodes (one upload).  The server then votes per layer
    with both rules and encodes the two aggregates.  Every client receives
    the same download bytes, so one decode of each stands for all of them.
    """
    sent = 0
    full = [[] for _ in LENET_LAYERS]
    sparse = [[] for _ in LENET_LAYERS]

    def upload(layers: list[np.ndarray]) -> bool:
        nonlocal sent
        ok = True
        for li, (n, r) in enumerate(zip(LENET_LAYERS, layers)):
            sr = ranking.truncate_ranking(r, WIRE_SPARSITY)
            up_full = ranking.encode_layer_ranking(r)
            up_sparse = ranking.encode_sparse_ranking(sr)
            sent += len(up_full) + len(up_sparse)
            got_full = ranking.decode_layer_ranking(up_full, n)
            got_sparse = ranking.decode_sparse_ranking(up_sparse, len(sr.top), n)
            ok = (ok and len(up_full) == _encoded_length(n, n)
                  and len(up_sparse) == _encoded_length(len(sr.top), n)
                  and np.array_equal(got_full, r) and np.array_equal(got_sparse.top, sr.top))
            full[li].append(got_full)
            sparse[li].append(got_sparse)
        return ok

    def server() -> None:
        nonlocal sent
        for li, n in enumerate(LENET_LAYERS):
            for aggregate in (ranking.vote(full[li])[0], ranking.sparse_vote(sparse[li])[0]):
                down = ranking.encode_layer_ranking(aggregate)
                sent += len(down)
                counter.check(len(down) == _encoded_length(n, n) and np.array_equal(
                    ranking.decode_layer_ranking(down, n), aggregate))

    uploads = []
    for layers in clients:
        ok, wall, slowdown = timer(upload, layers)
        uploads.append((wall, slowdown))
        counter.check(ok)
    _, wall, slowdown = timer(server)
    return sent, uploads, (wall, slowdown)


def wire_comm_cost_bytes() -> float:
    """The cost model's bytes for one wire_round."""
    full = analytics.comm_cost(LENET_LAYERS, "fsl")
    part = analytics.comm_cost(LENET_LAYERS, "sparse_fsl", WIRE_SPARSITY)
    return (WIRE_CLIENTS * (full.upload_bits + part.upload_bits)
            + full.download_bits + part.download_bits) / 8


def run_wire(seed: int, seconds: float, trace: bool, counter: Counter):
    pool = wire_inputs(seed)
    rounds = itertools.cycle(pool)
    upload_timings, server_timings, round_walls = [], [], []

    def one_round(timer):
        start = time.perf_counter()
        out = counter.call(wire_round, next(rounds), counter, timer)
        if out is not None:
            upload_timings.extend(out[1])
            server_timings.append(out[2])
            round_walls.append(time.perf_counter() - start)

    one_round(_plain)  # warm-up, checked but not timed
    upload_timings.clear()
    server_timings.clear()
    round_walls.clear()
    if not trace:
        peak = _peak_rss_mib()
        gauge = reference.Gauge(GAUGE_PARTS["wire-lenet"])
        setups, _ = _setups(gauge.timed, wire_inputs, seed)
        _repeat_until(seconds, MIN_REPEATS, lambda: one_round(gauge.timed))
        return {"uploads_per_s": _estimate(WIRE_CLIENTS, [(WIRE_CLIENTS, upload_timings),
                                                          (1, server_timings)]),
                "setup_s": _median(setups)}, peak

    _repeat_until(seconds / 2, 2, lambda: one_round(_plain))
    tracer = spans.Tracer()
    with spans.traced(tracer, LAYERS + list(PHASES)) as missing:
        start = time.perf_counter()
        out = counter.call(wire_round, pool[0], counter, _plain)
        traced_wall = time.perf_counter() - start
    return tracer, missing, traced_wall, statistics.median(round_walls), {
        "ranking.wire_bytes": out[0] if out else 0,
        "analytics.comm_cost_bytes": wire_comm_cost_bytes()}


# --- reporting ---------------------------------------------------------------


def trace_metrics(tracer: spans.Tracer, missing: list[str], traced_wall: float,
                  baseline_wall: float, extra: dict) -> dict[str, float]:
    totals = spans.layer_totals(tracer.spans)
    values: dict[str, float] = {}
    for target in LAYERS:
        name = spans.span_name(target)
        if name not in missing:
            calls, own = totals.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = own
    phase_of = {spans.span_name(t): phase for t, phase in PHASES.items()
                if spans.span_name(t) not in missing}
    phases = spans.phase_totals(tracer.spans, phase_of)
    for phase in PHASE_NAMES:
        values[f"protocols.{phase}_s"] = phases.get(phase, 0.0)
    values["protocols.phase_coverage"] = sum(phases.values()) / traced_wall
    values["trace.overhead_s"] = traced_wall - baseline_wall
    values.update(extra)
    return values


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_build = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_build, "nproc": len(os.sched_getaffinity(0))}


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([[s.name, s.start, s.end, s.parent] for s in tracer.spans]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    counter = Counter()
    if args.workload == "wire-lenet":
        out = run_wire(args.seed, args.seconds, bool(args.trace), counter)
    else:
        out = run_training(args.workload, args.seed, args.seconds, bool(args.trace), counter)

    if args.trace:
        tracer, missing, traced_wall, baseline_wall, extra = out
        values = trace_metrics(tracer, missing, traced_wall, baseline_wall, extra)
        units = per_layer_units()
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        samples = {}
        write_spans(tracer, SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.json")
        missing_metrics = [name for name in units if name not in values]
    else:
        timed, rss_mib = out
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, (v, _, _) in timed.items()}
        metrics["peak_rss_mib"] = {"value": rss_mib, "unit": END_TO_END_UNITS["peak_rss_mib"]}
        samples = {name: {"n": n, "raw": raw} for name, (_, n, raw) in timed.items()}
        missing_metrics = []
    print(json.dumps({"correct": counter.failed == 0, "attempted": counter.attempted,
                      "failed": counter.failed, "metrics": metrics, "samples": samples,
                      "missing": missing_metrics, "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
