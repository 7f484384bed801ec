"""Unit tests for :mod:`repro.eval.runspec`."""

import dataclasses
import inspect
import pickle

import pytest

from repro.eval.profiles import ExperimentScale, get_scale
from repro.eval.runner import run_system, run_system_cached
from repro.eval.runspec import DEFAULT_SEED, NON_KEYED, RunSpec, dedupe_specs
from repro.isa.classify import MissClass


def spec(**kwargs):
    base = dict(workload="db", n_cores=1, prefetcher="discontinuity", scale="smoke")
    base.update(kwargs)
    return RunSpec.create(**base)


class TestCreate:
    def test_resolves_scale_names(self):
        assert spec(scale="smoke").scale == get_scale("smoke")
        assert spec(scale=None).scale == get_scale("")
        custom = ExperimentScale(
            name="tiny",
            warm_instructions=1_000,
            measure_instructions=2_000,
            cmp_measure_instructions=1_000,
        )
        assert spec(scale=custom).scale is custom

    def test_normalizes_overrides_to_sorted_tuple(self):
        a = spec(prefetcher_overrides={"table_entries": 2, "counter_max": 1})
        b = spec(prefetcher_overrides={"counter_max": 1, "table_entries": 2})
        assert a == b
        assert a.prefetcher_overrides == (("counter_max", 1), ("table_entries", 2))
        assert a.overrides == {"counter_max": 1, "table_entries": 2}

    def test_rejects_an_override_the_scheme_does_not_read(self):
        with pytest.raises(ValueError, match=r"reads no override \['degree'\]"):
            spec(prefetcher="target", prefetcher_overrides={"degree": 2})
        with pytest.raises(ValueError, match="software prefetcher"):
            spec(software_prefetch=True, prefetcher_overrides={"table_entries": 2})
        assert spec(prefetcher="fdp", prefetcher_overrides={"ras_entries": 1}).overrides == {
            "ras_entries": 1
        }

    def test_defaults(self):
        s = spec()
        assert s.seed == DEFAULT_SEED
        assert s.l2_policy == "normal"
        assert not s.software_prefetch
        assert s.free_miss_classes == frozenset()

    def test_unknown_engine_backend_rejected_at_build(self):
        # A stale or typo'd backend fails before any trace is synthesized,
        # and the error lists what is available.
        with pytest.raises(ValueError, match="'vectorized'; available: reference, jit"):
            spec(engine_backend="vectorized")
        with pytest.raises(ValueError, match="unknown engine backend 'simd'"):
            spec(engine_backend="simd")
        assert spec(engine_backend="jit").engine_backend == "jit"

    def test_hashable_and_picklable(self):
        s = spec(free_miss_classes=frozenset({MissClass.BRANCH}))
        assert hash(s) == hash(spec(free_miss_classes=frozenset({MissClass.BRANCH})))
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        assert clone.content_hash() == s.content_hash()


class TestContentHash:
    def test_stable_across_constructions(self):
        assert spec().content_hash() == spec().content_hash()
        assert (
            spec(prefetcher_overrides={"counter_max": 1, "table_entries": 2}).content_hash()
            == spec(prefetcher_overrides={"table_entries": 2, "counter_max": 1}).content_hash()
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"workload": "web"},
            {"n_cores": 4},
            {"prefetcher": "next-2-line"},
            {"scale": "default"},
            {"l2_policy": "bypass"},
            {"prefetcher_overrides": {"table_entries": 64}},
            {"free_miss_classes": frozenset({MissClass.BRANCH})},
            {"queue_filtering": False},
            {"queue_lifo": False},
            {"useless_hint_filter": True},
            {"l2_inclusive": True},
            {"l1_replacement": "plru"},
            {"l2_replacement": "random"},
            {"offchip_gbps": 4.0},
            {"software_prefetch": True},
            {"seed": DEFAULT_SEED + 1},
        ],
    )
    def test_any_parameter_changes_the_hash(self, change):
        assert spec(**change).content_hash() != spec().content_hash()

    def test_memoized_per_instance(self):
        s = spec()
        assert s.content_hash() is s.content_hash()
        assert s.content_hash() == spec().content_hash()
        moved = dataclasses.replace(s, seed=DEFAULT_SEED + 1)
        assert moved.content_hash() == spec(seed=DEFAULT_SEED + 1).content_hash()
        assert moved.content_hash() != s.content_hash()

    def test_every_field_but_non_keyed_keys_the_cache(self):
        fields = {field.name for field in dataclasses.fields(RunSpec)}
        assert NON_KEYED == {"engine_backend"}
        assert set(spec().canonical_dict()) == fields - NON_KEYED

    def test_non_keyed_field_never_moves_the_hash(self):
        assert (
            spec(engine_backend="reference").content_hash()
            == spec(engine_backend="jit").content_hash()
        )

    def test_a_new_field_keys_the_cache_without_further_edits(self):
        wider = dataclasses.make_dataclass(
            "WiderSpec", [("l2_latency", int, 11)], bases=(RunSpec,), frozen=True
        )
        base = dict(workload="db", n_cores=1, scale=get_scale("smoke"))
        assert wider(**base).canonical_dict()["l2_latency"] == 11
        assert wider(**base).content_hash() != wider(**base, l2_latency=12).content_hash()

    def test_canonical_dict_is_json_safe(self):
        import json

        blob = json.dumps(spec(free_miss_classes=frozenset(MissClass)).canonical_dict())
        assert "workload" in blob


class TestPlumbing:
    def test_runners_take_one_spec(self):
        # A run the drivers can ask for is always one a spec carries: the
        # runners have no parameter besides the spec.
        for runner in (run_system, run_system_cached):
            assert list(inspect.signature(runner).parameters) == ["spec"]

    def test_software_prefetch_spec_runs_the_software_prefetcher(self, monkeypatch):
        from repro.swpf import prefetcher as swpf

        built = []
        real = swpf.software_prefetcher_for
        monkeypatch.setattr(
            swpf,
            "software_prefetcher_for",
            lambda *args, **kwargs: built.append(args) or real(*args, **kwargs),
        )
        tiny = ExperimentScale(
            name="tiny",
            warm_instructions=1_000,
            measure_instructions=2_000,
            cmp_measure_instructions=1_000,
        )
        run_system(spec(prefetcher="none", scale=tiny, software_prefetch=True, n_cores=2))
        assert built == [("db", DEFAULT_SEED, 0), ("db", DEFAULT_SEED, 1)]

    def test_trace_key_groups_same_trace_runs(self):
        assert spec().trace_key() == spec(prefetcher="none").trace_key()
        assert spec().trace_key() != spec(n_cores=4).trace_key()
        assert spec().trace_key() != spec(seed=7).trace_key()

    def test_describe_mentions_the_interesting_bits(self):
        s = spec(l2_policy="bypass", prefetcher_overrides={"table_entries": 32})
        label = s.describe()
        assert "db" in label and "bypass" in label and "table_entries=32" in label
        assert "swpf" in spec(software_prefetch=True).describe()


def test_dedupe_preserves_first_occurrence_order():
    a, b, c = spec(), spec(n_cores=4), spec(prefetcher="none")
    assert dedupe_specs([a, b, a, c, b, a]) == [a, b, c]
