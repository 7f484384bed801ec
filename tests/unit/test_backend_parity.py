"""Backend equivalence: ``jit`` must be bit-identical to ``reference``.

The jit engine wins its speed by compiling the per-visit scalar semantics
to native code — but the repo's contract is that a backend is an
*execution strategy*, never a semantic: every stat, every cycle count,
every eviction order must match the reference engine exactly (which is why
the backend is excluded from the result-cache key, and why the golden
spec-parity hashes are pinned across backends).

This suite sweeps every registered prefetcher × {1, 4} cores ×
{normal, bypass} L2 policy at smoke scale and compares the **full**
:class:`~repro.core.metrics.CoreStats` of every core — scalars, miss-class
breakdowns and prefetch counters — plus the off-chip link stats, using
``repr`` equality so even a signed-zero or last-ulp float divergence
fails.  It also covers the graceful degradations: non-LRU replacement
(where jit falls back to reference stepping internally) and an unbuildable
jit kernel (where 'jit' selection falls back to the reference engine with
a logged warning).

Equality alone would pass vacuously if a jit run stepped on reference, so
every jit run of a family the kernel claims (``jitted._PF_MODES``) on a
configuration it supports must also have run every core in the kernel.
"""

from __future__ import annotations

import logging
from unittest import mock

import pytest

from repro.caches.missclass import MissBreakdown
from repro.cmp.system import System, SystemResult
from repro.core import backends, jitted
from repro.core.metrics import CoreStats, PrefetchStats
from repro.envvars import REPRO_ENGINE_BACKEND
from repro.eval.profiles import get_scale
from repro.eval.runner import run_system
from repro.eval.runspec import RunSpec
from repro.prefetch.registry import PREFETCHER_NAMES, create_prefetcher

SMOKE = get_scale("smoke")


def _stats_dict(stats: CoreStats) -> dict:
    """Every CoreStats field as plain data (breakdowns via ``counts()``)."""
    data = {}
    for name, value in vars(stats).items():
        if isinstance(value, MissBreakdown):
            data[name] = value.counts()
        elif isinstance(value, PrefetchStats):
            data[name] = vars(value).copy()
        else:
            data[name] = value
    return data


def _result_fingerprint(result: SystemResult) -> str:
    """repr of everything a run produced — any bit of divergence shows."""
    parts = [repr(_stats_dict(core)) for core in result.cores]
    link = result.link
    parts.append(
        repr(
            (
                link.occupancy_cycles,
                link.stats.requests,
                link.stats.busy_cycles,
                link.stats.queue_delay_cycles,
            )
        )
    )
    parts.append(repr(result.aggregate_ipc))
    return "\n".join(parts)


def _run(backend: str, **kwargs) -> SystemResult:
    kwargs.setdefault("workload", "db")
    kwargs.setdefault("scale", SMOKE)
    return run_system(RunSpec.create(engine_backend=backend, **kwargs))


#: the fast backends checked against reference in every sweep.
FAST_BACKENDS = ("jit",)

#: memoized reference fingerprints so each config's reference run happens
#: once however many fast backends compare against it.
_REFERENCE_MEMO: dict = {}


def _reference_fingerprint(**kwargs) -> str:
    key = repr(sorted(kwargs.items(), key=lambda item: item[0]))
    if key not in _REFERENCE_MEMO:
        _REFERENCE_MEMO[key] = _result_fingerprint(_run("reference", **kwargs))
    return _REFERENCE_MEMO[key]


def _kernel_claims(**kwargs) -> bool:
    """Must a jit run of this configuration execute in the kernel?"""
    return (
        jitted.jit_available()
        and type(create_prefetcher(kwargs["prefetcher"])) in jitted._PF_MODES
        and kwargs.get("l1_replacement", "lru") == "lru"
        and kwargs.get("l2_replacement", "lru") == "lru"
        and not kwargs.get("l2_inclusive", False)
    )


def _run_recording_engines(backend: str, **kwargs):
    """``(result, engines)`` of one run: the engines of the system it ran."""
    engines: list = []
    run = System.run

    def recording_run(system):
        engines.extend(system.engines)
        return run(system)

    with mock.patch.object(System, "run", recording_run):
        result = _run(backend, **kwargs)
    return result, engines


def assert_backends_match(backend: str = "all", **kwargs) -> None:
    reference = _reference_fingerprint(**kwargs)
    for candidate in FAST_BACKENDS if backend == "all" else (backend,):
        candidate_result, engines = _run_recording_engines(candidate, **kwargs)
        assert _result_fingerprint(candidate_result) == reference, candidate
        if candidate == "jit" and _kernel_claims(**kwargs):
            fallbacks = [
                getattr(engine, "fallback_reason", "not a jit engine")
                for engine in engines
                if not getattr(engine, "_twin_ok", False)
            ]
            assert not fallbacks, (
                f"{kwargs['prefetcher']}: claimed by the kernel but stepped "
                f"on reference: {fallbacks}"
            )


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("l2_policy", ["normal", "bypass"])
@pytest.mark.parametrize("prefetcher", PREFETCHER_NAMES)
def test_parity_single_core(prefetcher: str, l2_policy: str, backend: str) -> None:
    assert_backends_match(backend, n_cores=1, prefetcher=prefetcher, l2_policy=l2_policy)


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("l2_policy", ["normal", "bypass"])
@pytest.mark.parametrize("prefetcher", PREFETCHER_NAMES)
def test_parity_four_core(prefetcher: str, l2_policy: str, backend: str) -> None:
    assert_backends_match(backend, n_cores=4, prefetcher=prefetcher, l2_policy=l2_policy)


def test_parity_non_lru_replacement() -> None:
    """Non-LRU caches disable the fast paths; results must still match."""
    assert_backends_match(
        n_cores=1,
        prefetcher="discontinuity",
        l2_policy="bypass",
        l1_replacement="fifo",
        l2_replacement="plru",
    )


def test_parity_inclusive_l2() -> None:
    """The L2 back-invalidation hook also disables the fast paths."""
    assert_backends_match(
        n_cores=1, prefetcher="discontinuity", l2_policy="normal", l2_inclusive=True
    )


def test_parity_other_workload() -> None:
    assert_backends_match(
        workload="web", n_cores=1, prefetcher="discontinuity", l2_policy="bypass"
    )


def test_resolve_backend_rejects_unknown() -> None:
    with pytest.raises(ValueError, match="unknown engine backend"):
        backends.resolve_backend("simd")


def test_resolve_backend_env(monkeypatch) -> None:
    monkeypatch.setenv(REPRO_ENGINE_BACKEND, "jit")
    assert backends.resolve_backend("auto") == "jit"
    assert backends.resolve_backend(None) == "jit"
    assert backends.resolve_backend("reference") == "reference"
    monkeypatch.delenv(REPRO_ENGINE_BACKEND)
    monkeypatch.setattr(backends, "_jit_available", lambda: True)
    assert backends.resolve_backend("auto") == "jit"
    monkeypatch.setattr(backends, "_jit_available", lambda: False)
    assert backends.resolve_backend("auto") == "reference"


#: expected outcome of a request that must be rejected as unknown.
UNKNOWN = ValueError


@pytest.mark.parametrize(
    ("request_name", "n_cores", "env", "jit_ok", "expected"),
    [
        # Explicit names win regardless of core count, environment, or
        # whether the jit kernel is buildable (the graceful fallback to
        # reference happens at engine-construction time, not resolution).
        ("reference", 1, None, True, "reference"),
        ("reference", 4, "jit", True, "reference"),
        ("jit", 1, None, True, "jit"),
        ("jit", 1, None, False, "jit"),
        ("jit", 4, "reference", True, "jit"),
        # Otherwise the environment is the request; unset (or "auto")
        # means jit-if-buildable on every core count.
        ("auto", 1, None, True, "jit"),
        ("auto", 1, None, False, "reference"),
        ("auto", 1, "reference", True, "reference"),
        ("auto", 1, "jit", True, "jit"),
        ("auto", 1, "jit", False, "jit"),
        (None, 1, "jit", True, "jit"),
        ("", 1, "jit", True, "jit"),
        ("auto", 2, None, True, "jit"),
        ("auto", 2, None, False, "reference"),
        ("auto", 4, "auto", True, "jit"),
        ("auto", 4, "reference", True, "reference"),
        ("auto", 4, "reference", False, "reference"),
        ("auto", 4, "jit", True, "jit"),
        ("auto", 4, "jit", False, "jit"),
        # A misspelled environment value is rejected the same way on
        # every core count, never silently replaced by the default.
        ("auto", 1, "refrence", True, UNKNOWN),
        ("auto", 4, "refrence", True, UNKNOWN),
        ("auto", 4, "refrence", False, UNKNOWN),
        # The retired vectorized backend is an unknown name everywhere.
        ("vectorized", 1, None, True, UNKNOWN),
        (None, 4, "vectorized", True, UNKNOWN),
    ],
)
def test_resolve_backend_table(monkeypatch, request_name, n_cores, env, jit_ok, expected):
    if env is None:
        monkeypatch.delenv(REPRO_ENGINE_BACKEND, raising=False)
    else:
        monkeypatch.setenv(REPRO_ENGINE_BACKEND, env)
    monkeypatch.setattr(backends, "_jit_available", lambda: jit_ok)
    if expected is UNKNOWN:
        with pytest.raises(ValueError, match="unknown engine backend"):
            backends.resolve_backend(request_name, n_cores=n_cores)
    else:
        assert backends.resolve_backend(request_name, n_cores=n_cores) == expected


def test_jit_unavailable_falls_back_with_warning(monkeypatch, caplog) -> None:
    """When the kernel can't be built, a 'jit' system degrades to
    reference engines with exactly one logged warning, naming the cause."""
    from repro.cmp.system import System, SystemConfig
    from repro.core import jitted
    from repro.core.engine import CoreEngine
    from repro.eval.runner import get_traces

    monkeypatch.setattr(jitted, "_kernel_lib", None)
    monkeypatch.setattr(jitted, "_kernel_probed", False)
    monkeypatch.setattr(
        jitted, "_build_kernel", lambda: (_ for _ in ()).throw(OSError("no cc"))
    )
    with caplog.at_level(logging.WARNING, logger="repro.core"):
        system = System(
            SystemConfig(n_cores=2, engine_backend="jit"),
            get_traces("db", 2, 2_000),
        )
    assert all(type(engine) is CoreEngine for engine in system.engines)
    warnings = [
        record
        for record in caplog.records
        if record.name in ("repro.core.jitted", "repro.core.backends")
        and record.levelno == logging.WARNING
    ]
    assert len(warnings) == 1
    assert "no cc" in warnings[0].getMessage()
    assert "falling back to the reference backend" in warnings[0].getMessage()


def test_auto_system_engines_follow_core_count(monkeypatch) -> None:
    """Unset-environment auto builds jit engines for single- and
    multi-core systems alike when the kernel is buildable."""
    from repro.cmp.system import System, SystemConfig
    from repro.eval.runner import get_traces

    if not backends._jit_available():
        pytest.skip("no C compiler: jit kernel unbuildable")
    from repro.core.jitted import JittedCoreEngine

    monkeypatch.delenv(REPRO_ENGINE_BACKEND, raising=False)
    for n_cores in (1, 2):
        system = System(
            SystemConfig(n_cores=n_cores, engine_backend="auto"),
            get_traces("db", n_cores, 2_000),
        )
        assert len(system.engines) == n_cores
        assert all(
            isinstance(engine, JittedCoreEngine) for engine in system.engines
        )


def test_multicore_auto_without_jit_uses_reference(monkeypatch) -> None:
    """With the jit kernel unbuildable, auto falls back to plain
    reference engines on every core count."""
    from repro.cmp.system import System, SystemConfig
    from repro.core.engine import CoreEngine
    from repro.eval.runner import get_traces

    monkeypatch.delenv(REPRO_ENGINE_BACKEND, raising=False)
    monkeypatch.setattr(backends, "_jit_available", lambda: False)
    for n_cores in (1, 2):
        system = System(
            SystemConfig(n_cores=n_cores, engine_backend="auto"),
            get_traces("db", n_cores, 2_000),
        )
        assert all(type(engine) is CoreEngine for engine in system.engines)
