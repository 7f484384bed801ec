"""Unit tests for the MANA-style record/replay prefetcher."""

import pytest

from repro.isa.kinds import TransitionKind
from repro.prefetch.mana import ManaPrefetcher, ManaTable

SEQ = int(TransitionKind.SEQUENTIAL)


def feed(pf, lines):
    """Drive the recorder through a fetch-line sequence (no triggers)."""
    for line in lines:
        pf.on_demand_fetch(line, False, False, SEQ)


class TestManaTable:
    def test_commit_and_lookup(self):
        table = ManaTable(entries=64, assoc=4)
        table.commit(10, 0b101, 20)
        record = table.lookup(10)
        assert record is not None
        assert record.footprint == 0b101
        assert record.successor == 20

    def test_recommit_refreshes_footprint_and_successor(self):
        table = ManaTable(entries=64, assoc=4)
        table.commit(10, 0b1, 20)
        table.commit(10, 0b11, 40)
        record = table.lookup(10)
        assert record.footprint == 0b11
        assert record.successor == 40
        assert table.occupancy() == 1

    def test_eviction_prefers_lowest_confidence(self):
        # entries=4/assoc=2 -> 2 sets; even triggers share set 0.
        table = ManaTable(entries=4, assoc=2)
        table.commit(0, 0b1, -1)
        table.commit(2, 0b1, -1)
        table.credit(0)  # reinforce 0: confidence 2 vs 2's 1
        table.commit(4, 0b1, -1)  # set full -> evicts the weaker record 2
        assert table.lookup(0) is not None
        assert table.lookup(2) is None
        assert table.lookup(4) is not None
        assert table.stats.evictions == 1

    def test_credit_saturates(self):
        table = ManaTable(entries=64, assoc=4)
        table.commit(10, 0b1, -1)
        for _ in range(10):
            table.credit(10)
        assert table.lookup(10).confidence == 3

    def test_reset(self):
        table = ManaTable(entries=64, assoc=4)
        table.commit(10, 0b1, -1)
        table.reset()
        assert table.lookup(10) is None
        assert table.occupancy() == 0
        assert table.stats.commits == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ManaTable(entries=48)  # not a power of two
        with pytest.raises(ValueError):
            ManaTable(entries=4, assoc=8)  # assoc exceeds entries


class TestRecordReplayRoundtrip:
    def test_recorded_regions_replay_with_chaining(self):
        pf = ManaPrefetcher(table_entries=64, assoc=4, region_lines=8, replay_depth=2)
        # Region 0 footprint {0,1,3}, then region 2 {16,17}, then leave:
        # commits record(0, {0,1,3}, successor=16) and record(16, {16,17}, 32).
        feed(pf, [0, 1, 3, 16, 17, 32])
        candidates = pf.on_demand_fetch(0, True, False, SEQ)
        lines = [c.line for c in candidates]
        # Footprint of the triggering record minus the trigger itself,
        # then the chained successor record's full footprint.
        assert lines == [1, 3, 16, 17]
        assert candidates[0].provenance == ("mana", 0)
        assert candidates[2].provenance == ("mana", 16)

    def test_replay_depth_bounds_the_chain(self):
        pf = ManaPrefetcher(table_entries=64, assoc=4, region_lines=8, replay_depth=1)
        feed(pf, [0, 1, 16, 17, 32])
        lines = [c.line for c in pf.on_demand_fetch(0, True, False, SEQ)]
        # Depth 1: only the triggering record replays; 16/17 are not.
        assert lines == [1]

    def test_unknown_trigger_replays_nothing(self):
        pf = ManaPrefetcher(table_entries=64, assoc=4)
        assert pf.on_demand_fetch(999, True, False, SEQ) == []

    def test_no_trigger_no_candidates(self):
        pf = ManaPrefetcher(table_entries=64, assoc=4)
        feed(pf, [0, 1, 16])
        assert pf.on_demand_fetch(17, False, False, SEQ) == []

    def test_re_recording_updates_the_footprint(self):
        pf = ManaPrefetcher(table_entries=64, assoc=4, region_lines=8, replay_depth=1)
        feed(pf, [0, 1, 16])  # record(0, {0,1}, 16)
        feed(pf, [0, 3, 16])  # re-record: record(0, {0,3}, 16)
        lines = [c.line for c in pf.on_demand_fetch(0, True, False, SEQ)]
        assert lines == [3]

    def test_credit_reinforces_the_record(self):
        pf = ManaPrefetcher(table_entries=64, assoc=4)
        feed(pf, [0, 1, 16])
        pf.credit(("mana", 0))
        assert pf.table.lookup(0).confidence == 2
        pf.credit(("seq",))  # foreign provenance is ignored
        assert pf.table.stats.credits == 1


class TestManaPrefetcher:
    def test_state_bytes(self):
        pf = ManaPrefetcher(table_entries=64, region_lines=8)
        # 64 entries x (32 tag + 8 footprint + 32 successor + 2 conf) bits.
        assert pf.state_bytes() == 64 * (32 + 8 + 32 + 2) // 8

    def test_reset_clears_recorder_and_table(self):
        pf = ManaPrefetcher(table_entries=64, assoc=4)
        feed(pf, [0, 1, 16])
        pf.reset()
        assert pf.table.occupancy() == 0
        assert pf.on_demand_fetch(0, True, False, SEQ) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ManaPrefetcher(region_lines=6)
        with pytest.raises(ValueError):
            ManaPrefetcher(replay_depth=0)

    def test_name(self):
        assert ManaPrefetcher(table_entries=512).name == "mana-512"
