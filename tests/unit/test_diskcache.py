"""Unit tests for the persistent on-disk result cache."""

import json

import pytest

from repro import version
from repro.envvars import REPRO_CACHE_DIR, REPRO_DISK_CACHE
from repro.eval import diskcache
from repro.eval.profiles import ExperimentScale
from repro.eval.runner import run_system
from repro.eval.runspec import RunSpec
from repro.util import filestore

TINY = ExperimentScale(
    name="tiny",
    warm_instructions=4_000,
    measure_instructions=12_000,
    cmp_measure_instructions=6_000,
)


@pytest.fixture(scope="module")
def tiny_run():
    """One real (spec, result) pair, simulated once for the whole module."""
    spec = RunSpec.create("db", 1, "discontinuity", scale=TINY, l2_policy="bypass")
    result = run_system(spec)
    return spec, result


def put(spec, result):
    """Store *result* the way the executor does: as its encoded entry."""
    return diskcache.store(spec, diskcache.encode(spec, result))


def assert_results_identical(a, b):
    """Exact (repr-level) equality of every metric the figures read."""
    assert a.aggregate_ipc == b.aggregate_ipc
    assert a.l1i_miss_rate == b.l1i_miss_rate
    assert a.l2i_miss_rate == b.l2i_miss_rate
    assert a.l2d_miss_rate == b.l2d_miss_rate
    assert a.prefetch_accuracy == b.prefetch_accuracy
    assert a.l1i_coverage == b.l1i_coverage
    for core_a, core_b in zip(a.cores, b.cores):
        assert core_a.cycles == core_b.cycles
        assert core_a.instructions == core_b.instructions
        assert core_a.l1i_breakdown.counts() == core_b.l1i_breakdown.counts()
        assert core_a.l2i_breakdown.counts() == core_b.l2i_breakdown.counts()
    assert a.link.stats.requests == b.link.stats.requests
    assert a.link.stats.busy_cycles == b.link.stats.busy_cycles


def test_store_then_load_is_bit_identical(tiny_run):
    spec, result = tiny_run
    assert put(spec, result)
    loaded = diskcache.load(spec)
    assert loaded is not None
    assert_results_identical(loaded, result)


def test_payload_round_trip_without_disk(tiny_run):
    spec, result = tiny_run
    payload = diskcache.result_to_payload(result, spec)
    rebuilt = diskcache.payload_to_result(json.loads(json.dumps(payload)))
    assert_results_identical(rebuilt, result)
    assert payload["spec_hash"] == spec.content_hash()


def test_schema_bump_invalidates(tiny_run, monkeypatch):
    spec, result = tiny_run
    assert put(spec, result)
    assert diskcache.load(spec) is not None
    # An entry written by other code (any edit to the package) is a miss.
    monkeypatch.setattr(version, "code_hash", lambda: "0" * 64)
    assert diskcache.load(spec) is None


def test_spec_change_selects_a_different_file(tiny_run):
    spec, result = tiny_run
    other = RunSpec.create("db", 1, "discontinuity", scale=TINY, l2_policy="bypass", seed=spec.seed + 1)
    assert diskcache.path_for(other) != diskcache.path_for(spec)
    put(spec, result)
    assert diskcache.load(other) is None


def test_corrupt_entry_is_a_miss_not_an_error(tiny_run):
    spec, result = tiny_run
    assert put(spec, result)
    path = diskcache.path_for(spec)
    path.write_text("{not json")
    assert diskcache.load(spec) is None
    path.write_text('{"schema": 1, "cores": "wrong-shape"}')
    assert diskcache.load(spec) is None


def test_disable_env_turns_the_cache_off(tiny_run, monkeypatch):
    spec, result = tiny_run
    for value in ("0", "off", "false", "no"):
        monkeypatch.setenv(REPRO_DISK_CACHE, value)
        assert not diskcache.enabled()
        assert not put(spec, result)
        assert diskcache.load(spec) is None
    monkeypatch.setenv(REPRO_DISK_CACHE, "1")
    assert diskcache.enabled()


def test_clear_and_entry_count(tiny_run):
    spec, result = tiny_run
    assert diskcache.entry_count() == 0
    put(spec, result)
    assert diskcache.entry_count() == 1
    assert diskcache.clear() == 1
    assert diskcache.entry_count() == 0


def test_clear_removes_orphaned_tmp_files(tiny_run):
    spec, result = tiny_run
    put(spec, result)
    orphan = diskcache.cache_dir() / "deadbeef.tmp"
    orphan.write_text("partial write from a crashed process")
    assert diskcache.clear() == 2  # the entry and the orphan
    assert not orphan.exists()
    assert diskcache.entry_count() == 0


def test_store_sweeps_stale_tmp_but_spares_live_writers(tiny_run):
    import os

    spec, result = tiny_run
    directory = diskcache.cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    stale = directory / "stale.tmp"
    stale.write_text("orphan")
    ancient = 1_000_000_000  # well past TMP_MAX_AGE_SECONDS ago
    os.utime(stale, (ancient, ancient))
    fresh = directory / "fresh.tmp"
    fresh.write_text("a concurrent writer's live file")

    assert put(spec, result)
    assert not stale.exists()
    assert fresh.exists()


def test_sweep_stale_tmp_age_zero_removes_everything(tiny_run):
    directory = diskcache.cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "one.tmp").write_text("x")
    (directory / "two.tmp").write_text("y")
    assert diskcache.sweep_stale_tmp(max_age_seconds=0) == 2
    assert diskcache.sweep_stale_tmp(max_age_seconds=0) == 0


def test_entries_are_world_readable(tiny_run):
    spec, result = tiny_run
    assert put(spec, result)
    mode = diskcache.path_for(spec).stat().st_mode & 0o777
    assert mode == filestore.ENTRY_MODE  # mkstemp's 0600 would hide the
    # entry from other users of a shared cache directory


def test_unwritable_cache_dir_degrades_gracefully(tiny_run, tmp_path, monkeypatch):
    spec, result = tiny_run
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    monkeypatch.setenv(REPRO_CACHE_DIR, str(blocker / "cache"))
    assert not put(spec, result)
    assert diskcache.load(spec) is None


def test_non_plain_scalar_fails_loudly(tiny_run):
    """A stat that is not a plain int/float (a NumPy-style scalar) never
    reaches disk: ``encode`` rejects it and nothing is written."""
    import copy

    class Scalar:
        def item(self):
            return 7

    spec, result = tiny_run
    tainted = copy.deepcopy(result)
    tainted.cores[0].instructions = Scalar()
    with pytest.raises(TypeError):
        put(spec, tainted)
    assert diskcache.entry_count() == 0


#: the only types a cache entry's JSON holds.
PLAIN_TYPES = {dict, list, str, int, float, bool, type(None)}


def value_types(value):
    """The exact type of *value* and of everything nested inside it."""
    found = {type(value)}
    if isinstance(value, dict):
        for key, item in value.items():
            found |= value_types(key) | value_types(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            found |= value_types(item)
    return found


def test_entry_round_trips_and_holds_plain_data_only():
    """The entry is the only form a result crosses the worker boundary
    in: decoding and re-encoding it gives the same bytes, and the payload
    behind it is plain JSON data (a tuple would load back as a list)."""
    spec = RunSpec.create("db", 4, "discontinuity", scale=TINY, l2_policy="bypass")
    result = run_system(spec)
    assert all(sum(core.l1i_breakdown.counts()) > 0 for core in result.cores)
    assert all(sum(core.l2i_breakdown.counts()) > 0 for core in result.cores)
    assert all(core.prefetch.issued > 0 for core in result.cores)

    entry = diskcache.encode(spec, result)
    assert diskcache.encode(spec, diskcache.decode(entry)) == entry
    payload = diskcache.result_to_payload(result, spec)
    assert value_types(payload) <= PLAIN_TYPES
    assert value_types(json.loads(entry)) <= PLAIN_TYPES
    assert json.loads(entry) == payload

