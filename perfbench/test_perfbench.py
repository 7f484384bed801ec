"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest perfbench -q

(pytest puts this directory on ``sys.path``, so the benchmark's modules
import by name.)
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import compare
import pytest
import run
import spans
import sweep

from repro.cmp.link import OffChipLink
from repro.cmp.system import SystemConfig, SystemResult
from repro.core.metrics import CoreStats
from repro.eval import diskcache

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> set:
    return {metric["name"] for metric in BENCHMARK[kind]}


def _result(instructions: int = 1000, prefetcher: str = "none") -> SystemResult:
    core = CoreStats(instructions=instructions, cycles=1234.5, l1i_fetches=300, l1i_misses=7)
    link = OffChipLink(bytes_per_cycle=2.0, line_size=64)
    link.stats.requests = 11
    return SystemResult(SystemConfig(n_cores=1, prefetcher=prefetcher), [core], link)


# --------------------------------------------------------------------- #
# Digests
# --------------------------------------------------------------------- #


def test_digest_pins_statistics_not_configuration():
    digest = sweep.result_digest(_result())
    assert sweep.result_digest(_result()) == digest
    assert sweep.result_digest(_result(prefetcher="discontinuity")) == digest
    assert sweep.result_digest(_result(instructions=1001)) != digest
    restored = diskcache.payload_to_result(diskcache.result_to_payload(_result()))
    assert sweep.result_digest(restored) == digest


def test_digest_value_is_stable():
    # Any change to the payload form of CoreStats or the link changes every
    # committed digest; this literal makes that visible here first.
    assert sweep.result_digest(_result()) == (
        "cb02d290e607e5fb569f74d540e407d2cf9dd106e3bf096f8b48435611f56ff0"
    )


@pytest.mark.parametrize("seed_name", ["default", "heldout"])
def test_committed_digests_cover_every_spec(seed_name):
    committed = json.loads(sweep.DIGESTS.read_text())
    seed = sweep.workload_seed(seed_name)
    keys = {
        spec.content_hash()
        for workload in sweep.WORKLOADS.values()
        for spec in sweep.sweep_specs(workload, seed)
    }
    assert len(keys) == 56
    assert set(committed[str(seed)]) == keys


# --------------------------------------------------------------------- #
# Spans and self time
# --------------------------------------------------------------------- #


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        spans.Span("sweep", 0.0, 10.0),
        spans.Span("executor", 1.0, 9.0, parent=0),
        spans.Span("system.run", 2.0, 5.0, parent=1),
        spans.Span("cache.write", 4.0, 6.0, parent=1),  # overlaps the run
        spans.Span("trace.synth", 2.5, 3.0, parent=2),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 4.0, 2.5, 2.0, 0.5])


def test_self_times_of_a_nested_tree_sum_to_the_root():
    tree = [
        spans.Span("setup", 0.0, 4.0),
        spans.Span("jit.kernel", 0.5, 1.0, parent=0),
        spans.Span("trace.synth", 1.0, 3.0, parent=0),
        spans.Span("sweep", 4.0, 9.0),
        spans.Span("executor", 4.5, 8.5, parent=3),
        spans.Span("system.run", 5.0, 8.0, parent=4),
    ]
    assert sum(spans.self_times(tree)) == pytest.approx(9.0)


def test_layer_metrics_split_engine_time_and_phases():
    tree = [
        spans.Span("setup", 0.0, 2.0),
        spans.Span("trace.synth", 0.5, 1.5, parent=0, attrs={"instructions": 2_000_000}),
        spans.Span("sweep", 2.0, 10.0),
        spans.Span(
            "system.run", 3.0, 5.0, parent=2,
            attrs={"n_cores": 4, "prefetcher": "mana", "visits": 4000},
        ),
        spans.Span(
            "system.run", 5.0, 6.0, parent=2,
            attrs={"n_cores": 1, "prefetcher": "none", "visits": 1000},
        ),
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["synth.s"] == pytest.approx(1.0)
    assert metrics["synth.calls"] == 1
    assert metrics["synth.sweep_calls"] == 0
    assert metrics["synth.minstr_per_s"] == pytest.approx(2.0)
    assert metrics["engine.s"] == pytest.approx(3.0)
    assert metrics["engine.4c.s"] == pytest.approx(2.0)
    assert metrics["engine.1c.s"] == pytest.approx(1.0)
    assert metrics["engine.pf.mana.s"] == pytest.approx(2.0)
    assert metrics["engine.pf.shadow.s"] == 0.0
    assert metrics["engine.kvisits_per_s"] == pytest.approx(5.0 / 3.0)
    assert metrics["other.self_s"] == pytest.approx(1.0 + 5.0)


def test_tracer_patches_functions_and_classmethods_then_restores_them():
    class Layer:
        @classmethod
        def build(cls, n):
            return [0] * n

    module = types.SimpleNamespace(load=lambda key: None)
    tracer = spans.Tracer()
    tracer.patch(Layer, "build", "trace.compile", lambda a, k, r: {"visits": len(r)})
    tracer.patch(module, "load", "store.load", lambda a, k, r: {"hit": r is not None})
    with tracer.span("sweep"):
        assert Layer.build(3) == [0, 0, 0]
        module.load("key")
    assert [span.name for span in tracer.spans] == ["sweep", "trace.compile", "store.load"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].attrs == {"visits": 3}
    assert tracer.spans[2].attrs == {"hit": False}
    tracer.unpatch()
    Layer.build(1)
    module.load("key")
    assert len(tracer.spans) == 3


def test_every_layer_patch_target_exists():
    tracer = spans.Tracer()
    tracer.install(spans.LAYER_PATCHES)
    tracer.unpatch()


# --------------------------------------------------------------------- #
# Emitted metric names
# --------------------------------------------------------------------- #


def _rep(**overrides):
    rep = {
        "kind": "whole",
        "jobs": 2,
        "setup_s": 1.0,
        "sweep_s": 2.0,
        "sim_instructions": 4_000_000,
        "peak_rss_mb": 100.0,
        "verdicts_failed": [],
        "executor": {
            "simulated": 16, "retried": 0, "failed": 0, "spec_sum_s": 3.0, "wall_s": 2.0,
        },
    }
    rep.update(overrides)
    return rep


def test_emitted_metric_names_are_declared_in_benchmark_json():
    assert set(run.end_to_end([_rep()])) == _declared("end_to_end")
    traced = _rep(jobs=1, layers=spans.layer_metrics([]))
    metrics = run.per_layer(_rep(), _rep(jobs=1), traced)
    assert set(metrics) == _declared("per_layer")
    assert metrics["executor.parallel_eff"] == pytest.approx(0.75)
    assert metrics["trace_overhead"] == pytest.approx(1.0)
    assert run.declared_units("end_to_end")["sim_minstr_per_s"] == "Minstr/s"


def test_end_to_end_counts_each_repetition_kind_where_it_belongs():
    reps = [
        {"kind": "setup", "setup_s": 10.0},
        # A store-reusing set-up only loads what the first one built.
        _rep(kind="sweep", setup_s=0.2, sweep_s=6.0, peak_rss_mb=100.0),
        _rep(kind="sweep", setup_s=0.2, sweep_s=7.0, peak_rss_mb=110.0),
        _rep(kind="sweep", setup_s=0.2, sweep_s=9.0, peak_rss_mb=105.0),
        {"kind": "setup", "setup_s": 12.0},
    ]
    metrics = run.end_to_end(reps)
    assert metrics["sweep_s"] == 7.0
    assert metrics["setup_s"] == 11.0
    assert metrics["peak_rss_mb"] == 105.0
    assert metrics["sim_minstr_per_s"] == pytest.approx(4.0 / 7.0)


def test_next_kind_runs_sweeps_then_setups_while_half_of_one_fits():
    setup = {"kind": "setup", "wall_s": 10.0}
    # Every kind runs once, however little time is left.
    assert run.next_kind([setup], warm_store=True, left=0.0) == "sweep"
    sweep = _rep(kind="sweep", wall_s=8.0)
    assert run.next_kind([setup, sweep], warm_store=True, left=4.0) == "sweep"
    assert run.next_kind([setup, sweep], warm_store=True, left=3.9) is None
    # A second set-up goes ahead of the fifth sweep, when it fits.
    assert run.next_kind([setup] + [sweep] * 4, warm_store=True, left=30.0) == "setup"
    assert run.next_kind([setup] * 2 + [sweep] * 4, warm_store=True, left=30.0) == "sweep"
    assert run.next_kind([setup] + [sweep] * 4, warm_store=True, left=4.5) == "sweep"
    whole = _rep(wall_s=13.0)
    assert run.next_kind([whole] * 4, warm_store=False, left=6.5) == "whole"
    assert run.next_kind([whole], warm_store=False, left=6.0) == "setup"
    assert run.next_kind([whole, setup], warm_store=False, left=4.9) is None


# --------------------------------------------------------------------- #
# Comparing records
# --------------------------------------------------------------------- #


def _record(directory: Path, workload_seed: str, seed: int, sweep_s: float, correct=True):
    record = {
        "workload": "fig01-cold",
        "workload_seed": workload_seed,
        "trace": 0,
        "seed": seed,
        "fingerprint": {"python": "3.11"},
        "correct": correct,
        "metrics": {"sweep_s": sweep_s},
    }
    directory.mkdir(exist_ok=True)
    (directory / f"{workload_seed}-{seed}.json").write_text(json.dumps(record))


def test_compare_never_pools_workload_seeds(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    for seed in (1, 2, 3):
        _record(base, "default", seed, 10.0)
        _record(new, "default", seed, 10.5)
        _record(new, "heldout", seed, 99.0)
    groups = compare.load(new)
    assert sorted(groups) == [("fig01-cold", "default", 0), ("fig01-cold", "heldout", 0)]
    # The held-out runs' slower sweep would regress a pooled median.
    assert compare.main([str(base), str(new)]) == 0
    for seed in (1, 2, 3):
        _record(new, "default", seed, 20.0)
    assert compare.main([str(base), str(new)]) == 1


def test_compare_refuses_records_that_failed_their_check(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    _record(base, "default", 1, 10.0)
    _record(new, "default", 1, 10.0, correct=False)
    assert compare.main([str(base), str(new)]) == 2
