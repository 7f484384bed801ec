"""Unit tests for experiment scale profiles and the runner plumbing."""

import pytest

from repro.envvars import REPRO_PROFILE
from repro.eval.profiles import ExperimentScale
from repro.eval.profiles import SCALES, get_scale
from repro.eval.runner import (
    clear_result_cache,
    clear_trace_cache,
    get_traces,
    run_system_cached,
)
from repro.eval.runspec import RunSpec


class TestScales:
    def test_three_profiles(self):
        assert set(SCALES) == {"smoke", "default", "full"}

    def test_ordering(self):
        assert (
            SCALES["smoke"].measure_instructions
            < SCALES["default"].measure_instructions
            < SCALES["full"].measure_instructions
        )

    def test_totals(self):
        scale = SCALES["smoke"]
        assert scale.single_total == scale.warm_instructions + scale.measure_instructions
        assert (
            scale.cmp_total_per_core
            == scale.cmp_warm_instructions + scale.cmp_measure_instructions
        )

    def test_cmp_warm_scaled_down(self):
        scale = SCALES["default"]
        assert scale.cmp_warm_instructions < scale.warm_instructions

    def test_get_scale_explicit(self):
        assert get_scale("smoke") is SCALES["smoke"]

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv(REPRO_PROFILE, "full")
        assert get_scale() is SCALES["full"]

    def test_get_scale_default(self, monkeypatch):
        monkeypatch.delenv(REPRO_PROFILE, raising=False)
        assert get_scale() is SCALES["default"]

    def test_get_scale_unknown(self):
        with pytest.raises(KeyError):
            get_scale("gigantic")


TINY = ExperimentScale(
    name="tiny",
    warm_instructions=5_000,
    measure_instructions=20_000,
    cmp_measure_instructions=10_000,
)


class TestTraceCache:
    def test_traces_cached(self):
        clear_trace_cache()
        first = get_traces("web", 1, 10_000, seed=3)
        second = get_traces("web", 1, 10_000, seed=3)
        assert first is second

    def test_cache_keyed_on_args(self):
        clear_trace_cache()
        a = get_traces("web", 1, 10_000, seed=3)
        b = get_traces("web", 1, 10_000, seed=4)
        assert a is not b

    def test_clear(self):
        first = get_traces("web", 1, 10_000, seed=3)
        clear_trace_cache()
        assert get_traces("web", 1, 10_000, seed=3) is not first


class TestResultCache:
    def test_results_cached(self):
        clear_result_cache()
        first = run_system_cached(RunSpec.create("web", 1, "none", scale=TINY))
        second = run_system_cached(RunSpec.create("web", 1, "none", scale=TINY))
        assert first is second

    def test_distinct_configs_not_conflated(self):
        clear_result_cache()
        base = run_system_cached(RunSpec.create("web", 1, "none", scale=TINY))
        prefetched = run_system_cached(
            RunSpec.create("web", 1, "next-line-tagged", scale=TINY)
        )
        assert base is not prefetched

    def test_overrides_in_key(self):
        clear_result_cache()
        a = run_system_cached(
            RunSpec.create(
                "web", 1, "discontinuity", scale=TINY,
                prefetcher_overrides={"table_entries": 256},
            )
        )
        b = run_system_cached(
            RunSpec.create(
                "web", 1, "discontinuity", scale=TINY,
                prefetcher_overrides={"table_entries": 512},
            )
        )
        assert a is not b
