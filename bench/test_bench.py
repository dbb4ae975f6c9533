"""Self-tests of the benchmark's tracing arithmetic, wrapper hygiene and
metric names:  PYTHONPATH=src python -m pytest -q bench/test_bench.py"""

import json
import re
import sys
from pathlib import Path

import pytest

import reference
import spans
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_nested_spans():
    # root 0..10 with children a 1..4 (grandchild 2..3) and b 5..9 (clipped
    # sibling overlap must not count twice); c 20..21 is a separate root.
    tree = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("g", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("b", 8.0, 9.5, 0),
        spans.Span("c", 20.0, 21.0, -1),
    ]
    assert spans.self_times(tree) == [10 - 3 - 4.5, 2.0, 1.0, 4.0, 1.5, 1.0]
    assert spans.layer_totals(tree) == {"root": (1, 2.5), "a": (1, 2.0), "g": (1, 1.0),
                                        "b": (2, 5.5), "c": (1, 1.0)}
    # Only spans without a phase-tagged ancestor count toward a phase.
    phases = spans.phase_totals(tree, {"a": "train", "g": "eval", "b": "train", "c": "eval"})
    assert phases == {"train": 3.0 + 4.0 + 1.5, "eval": 1.0}


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def _fedrank_attributes():
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "fedrank" or name.startswith("fedrank."):
            for key, value in vars(mod).items():
                snapshot[(name, key)] = value
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        snapshot[(name, key, attr)] = raw
    return snapshot


def test_wrappers_are_installed_and_removed():
    from fedrank import nn, protocols
    from fedrank.rng import RngStream

    before = _fedrank_attributes()
    targets = workloads.LAYERS + list(workloads.PHASES)
    tracer = spans.Tracer()
    with spans.traced(tracer, targets + ["fedrank.nn:no_such_layer"]) as missing:
        assert missing == ["nn.no_such_layer"]
        assert protocols.evaluate is nn.evaluate is not before[("fedrank.nn", "evaluate")]
        RngStream(1).shuffle([0, 1, 2])
        nn.Supernetwork.from_seed(1, [nn.LayerSpec(2, 2, "identity")])
        changed = [k for k, v in _fedrank_attributes().items() if before.get(k) is not v]
    assert [s.name for s in tracer.spans] == ["rng.shuffle", "nn.from_seed"]
    # Every target's function was wrapped somewhere, and the module aliases too.
    assert ("fedrank.protocols", "build_environment") in changed
    assert ("fedrank.protocols", "dirichlet_partition") in changed
    assert ("fedrank.adversary", "multi_krum_select") in changed
    after = _fedrank_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_gauge_brackets_each_piece_with_kernel_runs(monkeypatch):
    gauge = reference.Gauge(tuple(reference.PART_S))
    assert gauge.kernel() == gauge.kernel()  # fixed work, whatever the machine
    slowdowns = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(gauge, "_slowdown", lambda: next(slowdowns))
    out, _, slowdown = gauge.timed(lambda x: x + 1, 1)
    assert (out, slowdown) == (2, 2.0)  # kernel before (1.0) and after (3.0)
    assert gauge.timed(lambda: None)[2] == 4.0  # the 3.0 run is shared


def test_reference_seconds_divide_each_piece_by_its_slowdown():
    # A piece of 2 s at full speed reads 2 s however slow the machine is.
    timings = [(2.0, 1.0), (6.0, 3.0), (1.0, 2.0)]
    assert workloads._reference_s(timings) == pytest.approx(2.0)
    rate, samples, raw = workloads._estimate(10.0, [(1, timings)])
    assert (rate, samples, raw) == (pytest.approx(5.0), 3, pytest.approx(5.0))


def test_every_workload_has_gauge_parts():
    assert set(workloads.GAUGE_PARTS) == set(workloads.WORKLOADS)
    assert all(set(p) <= set(reference.PART_S) for p in workloads.GAUGE_PARTS.values())


def test_metric_names():
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in declared)
    units = workloads.per_layer_units()
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(units)
    assert all(units[m["name"]] == m["unit"] for m in BENCHMARK["per_layer"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.TRAINING)
def test_golden_hashes_cover_every_variant(workload):
    golden = json.loads(workloads.GOLDEN_PATH.read_text())
    assert len(golden[workload]) == workloads.VARIANTS
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in golden[workload])
