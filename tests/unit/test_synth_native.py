"""Compiled trace synthesis (``repro.trace.synth.native``) against its
Python specification.

The C unit must emit exactly the bytes ``CompiledTrace.compile`` produces
over the Python trace: for every synthetic workload and the mix, on one
and four cores, at every line size, at the default and the held-out seed.
Without a compiler the runner must synthesize in Python, say so once,
and serve the same bytes.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.jitted import CORE, kernel_source_hash
from repro.envvars import REPRO_TRACE_STORE
from repro.eval import runner
from repro.eval.runspec import DEFAULT_SEED
from repro.trace.compiled import CompiledTrace
from repro.trace.source import resolve, source_names
from repro.trace.synth import native
from repro.trace.synth.walker import CoreWalk, walk_traces
from repro.trace.synth.workloads import synth_workload_names

#: the seed kept out of tuning (perfbench's ``--workload-seed heldout``).
HELDOUT_SEED = 2718

LINE_SIZES = (16, 32, 64, 128)
N_INSTRUCTIONS = 6_000

pytestmark = pytest.mark.skipif(
    not native.available(), reason="compiled trace synthesis needs a C compiler"
)


def _python_bytes(traces, workload, seed, n_instructions, line_size):
    return [
        CompiledTrace.compile(
            trace,
            line_size,
            workload=workload,
            seed=seed,
            core=core,
            n_instructions=n_instructions,
        ).to_bytes()
        for core, trace in enumerate(traces)
    ]


def _native_bytes(walks, workload, seed, n_instructions, line_size):
    blocks = native.synthesize(walks, n_instructions)
    return [
        native.lower(columns, line_size, workload, seed, core, n_instructions).to_bytes()
        for core, columns in enumerate(blocks)
    ]


def test_every_source_is_covered():
    assert sorted(source_names()) == sorted(synth_workload_names() + ["mix"])


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELDOUT_SEED])
@pytest.mark.parametrize("workload", synth_workload_names() + ["mix"])
def test_bytes_equal_python_compile(workload, seed):
    source = resolve(workload)
    # A 1-core request is the first core of a 4-core one, so one Python
    # synthesis serves both core counts.
    assert source.walks(1, seed) == source.walks(4, seed)[:1]
    python_traces = source.traces(4, seed, N_INSTRUCTIONS)
    for line_size in LINE_SIZES:
        expected = _python_bytes(python_traces, workload, seed, N_INSTRUCTIONS, line_size)
        for n_cores in (1, 4):
            got = _native_bytes(
                source.walks(n_cores, seed), workload, seed, N_INSTRUCTIONS, line_size
            )
            assert got == expected[:n_cores], (workload, seed, n_cores, line_size)


def _edge_profiles(base):
    """Profiles that reach every sampler branch the shipped four may not."""
    return [
        base,
        dataclasses.replace(base, callee_zipf=1.0, entry_zipf=0.0, hot_zipf=1.0),
        dataclasses.replace(base, text_shared_fraction=1.0, p_trap=0.0),
        dataclasses.replace(base, text_shared_fraction=0.0, p_trap=0.05),
        dataclasses.replace(
            base, p_cond=0.1, p_switch=0.5, switch_targets=6, block_mean_instr=1.0
        ),
        dataclasses.replace(
            base, p_cond=0.3, p_call=0.5, p_poly_call=0.7, max_call_depth=2
        ),
        dataclasses.replace(base, entry_fraction=0.0, fn_align=64, fwd_skip_mean=1.0),
    ]


@pytest.mark.parametrize("variant", range(7))
def test_edge_profiles_bytes_equal(tiny_profile, variant):
    profile = _edge_profiles(tiny_profile)[variant]
    walks = [
        CoreWalk(profile, 11, core=0),
        CoreWalk(profile, 11, core=2),
        CoreWalk(profile, 5, core=1, offset=3 << 40),
    ]
    traces = walk_traces(walks, 4_000)
    for line_size in (4, 64):
        expected = _python_bytes(traces, "tiny", 11, 4_000, line_size)
        assert _native_bytes(walks, "tiny", 11, 4_000, line_size) == expected


@pytest.mark.parametrize("attr", ["block_mean_instr", "fwd_skip_mean"])
def test_profile_rejects_geometric_means_below_one(tiny_profile, attr):
    # Python's sampler raises on such a mean; the C one would not.
    with pytest.raises(ValueError, match=f"{attr} must be >= 1"):
        dataclasses.replace(tiny_profile, **{attr: 0.5})


def test_line_data_column_is_shared_across_line_sizes():
    walks = resolve("web").walks(1, 3)
    (blocks,) = native.synthesize(walks, 4_000)
    small = native.lower(blocks, 32, "web", 3, 0, 4_000)
    large = native.lower(blocks, 128, "web", 3, 0, 4_000)
    assert small.data is large.data is blocks.data
    assert small.offsets[-1] == len(blocks.data)


def test_invalid_requests_raise_like_python():
    walks = resolve("web").walks(1, 3)
    with pytest.raises(ValueError, match="n_instructions must be positive"):
        native.synthesize(walks, 0)
    (blocks,) = native.synthesize(walks, 1_000)
    with pytest.raises(ValueError, match="power of two"):
        native.lower(blocks, 48, "web", 3, 0, 1_000)


# --------------------------------------------------------------------- #
# The runner's two paths
# --------------------------------------------------------------------- #


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setenv(REPRO_TRACE_STORE, "0")
    runner.clear_trace_cache()
    yield
    runner.clear_trace_cache()


def test_runner_serves_synthetic_workloads_without_python_traces(
    fresh_memo, monkeypatch
):
    def forbidden(*args, **kwargs):
        raise AssertionError("the compiled path must not build Python traces")

    monkeypatch.setattr(runner, "traces_for", forbidden)
    monkeypatch.setattr(CompiledTrace, "compile", forbidden)
    base = runner.synthesis_count()
    for line_size in (32, 64):
        traces = runner.get_compiled_traces("mix", 4, 5_000, seed=9, line_size=line_size)
        assert [trace.name for trace in traces] == ["db", "tpcw", "japp", "web"]
    assert runner.synthesis_count() - base == 1


def _without_compiler(monkeypatch):
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_probed", False)
    monkeypatch.setattr(
        native, "_build", lambda: (_ for _ in ()).throw(OSError("no cc"))
    )


def test_no_compiler_falls_back_to_python_with_one_warning(
    fresh_memo, monkeypatch, caplog
):
    compiled = {
        key: [trace.to_bytes() for trace in runner.get_compiled_traces(*key)]
        for key in (("db", 1, 5_000, 4, 64), ("mix", 4, 3_000, 4, 32))
    }
    runner.clear_trace_cache()
    _without_compiler(monkeypatch)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        fallback = {
            key: [trace.to_bytes() for trace in runner.get_compiled_traces(*key)]
            for key in compiled
        }
    assert fallback == compiled
    warnings = [
        record
        for record in caplog.records
        if record.name == native.__name__ and record.levelno == logging.WARNING
    ]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "no cc" in message and "synthesizing in Python" in message
    # The Python path memoized the raw traces it compiled.
    assert ("db", 1, 4, 5_000) in runner._TRACE_CACHE


def test_library_builds_lazily(tmp_path):
    """Importing the runner and probing the jit kernel build no synthesis
    library; the first synthesis does."""
    script = (
        "from repro.eval import runner\n"
        "from repro.core import jitted\n"
        "from repro.trace.synth import native\n"
        "jitted.jit_available()\n"
        "print(native._probed)\n"
        "runner.get_compiled_traces('web', 1, 2_000)\n"
        "print(native._probed, native.available())\n"
    )
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_TRACE_DIR"] = str(tmp_path / "traces")
    env.pop("REPRO_JIT_CACHE_DIR", None)
    env["PYTHONPATH"] = str(Path(native.__file__).resolve().parents[3])
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[0] == "False"
    assert out[1] == "True True"
    built = sorted(path.name for path in (tmp_path / "cache" / "jit").glob("*.so"))
    assert built == [
        f"repro_jit_{kernel_source_hash(CORE)}.so",
        f"repro_synth_{native.source_hash()}.so",
    ]
