"""Calibration tests: the synthetic workloads land in the paper's bands.

These run at a reduced-but-representative scale (between ``smoke`` and
``default``), so the whole module stays under ~2 minutes while the asserted
bands hold with margin.  The *authoritative* numbers live in
EXPERIMENTS.md and are produced at ``default``/``full`` scale by the
benchmark harness.
"""

import pytest

from repro.eval.profiles import ExperimentScale
from repro.eval.runner import run_system_cached
from repro.eval.runspec import RunSpec
from repro.isa.classify import MissClass
from repro.trace.synth.workloads import workload_names

SCALE = ExperimentScale(
    name="calibration",
    warm_instructions=150_000,
    measure_instructions=500_000,
    cmp_measure_instructions=250_000,
)


def single(workload, prefetcher="none", **kwargs):
    return run_system_cached(RunSpec.create(workload, 1, prefetcher, scale=SCALE, **kwargs))


def cmp4(workload, prefetcher="none", **kwargs):
    return run_system_cached(RunSpec.create(workload, 4, prefetcher, scale=SCALE, **kwargs))


class TestFigure1Bands:
    """Paper §3.1: default-config L1I miss rates 1.32-3.16%, jApp highest."""

    def test_l1i_rates_in_band(self):
        for workload in workload_names():
            rate = 100 * single(workload).l1i_miss_rate
            assert 0.8 < rate < 4.5, f"{workload}: {rate:.2f}%"

    def test_japp_highest_web_lowest(self):
        rates = {w: single(w).l1i_miss_rate for w in workload_names()}
        assert max(rates, key=rates.get) == "japp"
        assert min(rates, key=rates.get) == "web"


class TestFigure2Shapes:
    """Paper §3.1: CMP L2 instruction miss rates exceed single core."""

    @pytest.mark.parametrize("workload", ["db", "tpcw", "japp"])
    def test_cmp_increase(self, workload):
        rate_single = single(workload).l2i_miss_rate
        rate_cmp = cmp4(workload).l2i_miss_rate
        assert rate_cmp > 1.2 * rate_single, workload

    def test_mix_among_highest(self):
        mix_rate = cmp4("mix").l2i_miss_rate
        others = [cmp4(w).l2i_miss_rate for w in workload_names()]
        assert mix_rate > 0.6 * max(others)
        assert mix_rate > sorted(others)[-2]  # at least second highest


class TestFigure3Breakdown:
    """Paper §3.2: sequential misses are only 40-60% of L1I misses."""

    @pytest.mark.parametrize("workload", workload_names())
    def test_sequential_share(self, workload):
        by_class = single(workload).l1i_breakdown.by_class()
        total = sum(by_class.values())
        seq_share = by_class[MissClass.SEQUENTIAL] / total
        assert 0.30 < seq_share < 0.70, f"{workload}: {seq_share:.2f}"

    @pytest.mark.parametrize("workload", workload_names())
    def test_branch_and_function_shares(self, workload):
        by_class = single(workload).l1i_breakdown.by_class()
        total = sum(by_class.values())
        branch = by_class[MissClass.BRANCH] / total
        function = by_class[MissClass.FUNCTION] / total
        trap = by_class[MissClass.TRAP] / total
        assert 0.10 < branch < 0.55, f"{workload} branch {branch:.2f}"
        assert 0.08 < function < 0.40, f"{workload} function {function:.2f}"
        assert trap < 0.02, f"{workload} trap {trap:.2f}"


class TestFigure5Residuals:
    """Paper §6: discontinuity cuts the miss rate to a small residual."""

    def test_discontinuity_residual_band(self):
        for workload in ("db", "japp"):
            base = single(workload)
            pf = single(workload, "discontinuity", l2_policy="bypass")
            residual = pf.l1i_miss_rate / base.l1i_miss_rate
            assert residual < 0.25, f"{workload}: {residual:.2f}"

    def test_scheme_ordering(self):
        base = single("db").l1i_miss_rate
        last = 1.0
        for scheme in ("next-line-on-miss", "next-line-tagged", "next-4-line", "discontinuity"):
            residual = single("db", scheme, l2_policy="bypass").l1i_miss_rate / base
            assert residual < last, scheme
            last = residual


class TestFigure7And8Pollution:
    """Paper §6-§7: normal installs pollute; bypass removes the pollution."""

    def test_normal_install_inflates_l2_data_misses(self):
        base = cmp4("db").l2d_miss_rate
        polluted = cmp4("db", "discontinuity", l2_policy="normal").l2d_miss_rate
        assert polluted > 1.05 * base

    def test_bypass_removes_pollution(self):
        base = cmp4("db").l2d_miss_rate
        bypassed = cmp4("db", "discontinuity", l2_policy="bypass").l2d_miss_rate
        assert bypassed < 1.05 * base

    def test_bypass_competitive_with_normal_and_beats_baseline(self):
        # The IPC advantage of bypass over normal requires long windows for
        # the pollution to compound (it shows at default/full scale — see
        # EXPERIMENTS.md); at this reduced scale we assert the direction on
        # miss rates (above) and that bypass is at worst equal on IPC.
        base = cmp4("db").aggregate_ipc
        normal = cmp4("db", "discontinuity", l2_policy="normal").aggregate_ipc
        bypassed = cmp4("db", "discontinuity", l2_policy="bypass").aggregate_ipc
        assert normal > base
        assert bypassed > base
        assert bypassed > 0.95 * normal


class TestFigure9Accuracy:
    """Paper §7: accuracy falls with aggressiveness; 2NL variant recovers it."""

    def test_accuracy_ordering(self):
        tagged = cmp4("db", "next-line-tagged", l2_policy="bypass").prefetch_accuracy
        next4 = cmp4("db", "next-4-line", l2_policy="bypass").prefetch_accuracy
        disc = cmp4("db", "discontinuity", l2_policy="bypass").prefetch_accuracy
        disc2 = cmp4("db", "discontinuity-2nl", l2_policy="bypass").prefetch_accuracy
        assert tagged > next4 > disc
        assert disc2 > disc * 1.2


class TestFigure10TableSizes:
    """Paper §7: a 4x smaller table costs little coverage."""

    def test_coverage_robust_to_table_shrink(self):
        full = cmp4(
            "db", "discontinuity", l2_policy="bypass",
            prefetcher_overrides={"table_entries": 8192},
        ).l1i_coverage
        quarter = cmp4(
            "db", "discontinuity", l2_policy="bypass",
            prefetcher_overrides={"table_entries": 2048},
        ).l1i_coverage
        assert quarter > full - 0.06

    def test_small_table_beats_next4line(self):
        small = cmp4(
            "db", "discontinuity", l2_policy="bypass",
            prefetcher_overrides={"table_entries": 256},
        ).l1i_coverage
        seq = cmp4("db", "next-4-line", l2_policy="bypass").l1i_coverage
        assert small > seq
