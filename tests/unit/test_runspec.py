"""Unit tests for :mod:`repro.eval.runspec`."""

import pickle

import pytest

from repro.eval.profiles import ExperimentScale, get_scale
from repro.eval.runspec import DEFAULT_SEED, RunSpec, dedupe_specs
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

    def test_canonical_dict_is_json_safe(self):
        import json

        blob = json.dumps(spec(free_miss_classes=frozenset(MissClass)).canonical_dict())
        assert "workload" in blob


class TestPlumbing:
    def test_run_kwargs_round_trip(self):
        s = spec(prefetcher_overrides={"table_entries": 32}, l2_policy="bypass")
        kwargs = s.run_kwargs()
        assert kwargs["workload"] == "db"
        assert kwargs["prefetcher_overrides"] == {"table_entries": 32}
        assert kwargs["l2_policy"] == "bypass"
        assert "software_prefetch" not in kwargs  # executor-built factory

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
