"""Crash-safety and concurrency tests for the persistent wisdom store.

Covers the failure matrix the journal promises to absorb: a torn tail
(a writer killed mid-append), tampered lines (bit rot, manual edits),
files that are not ours, compaction, concurrent multi-process writers,
stale-entry eviction through ``validated_lookup`` — and that no
writer's line is lost to another store's platform, eviction or
invalidation.
"""

import json
import multiprocessing
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.search.dp import SMALL_TRANSFORM, search_small_sizes
from repro.wisdom.keys import platform_fingerprint
from repro.wisdom.store import WisdomStore, read_journal

FAULT_INJECT = os.environ.get("SPL_FAULT_INJECT") == "1"

requires_posix = pytest.mark.skipif(
    os.name != "posix", reason="fork-based concurrency test"
)


def record(store, n, seconds=1.0):
    store.record("fft-small", n, formula=f"(F {n})", seconds=seconds,
                 mflops=2.0)


def seeded_store(path, sizes=(8,)):
    """A journaled store with one entry per size: (store, file text)."""
    store = WisdomStore(path)
    for n in sizes:
        record(store, n)
    return store, path.read_text()


def sizes_in(path, **kwargs):
    return sorted(entry.n for entry in WisdomStore(path, **kwargs))


class TestTornAndEmptyFiles:
    def test_truncated_line_costs_that_line_only(self, tmp_path):
        # A file cut off mid-line (a writer killed mid-append, a full
        # disk): the torn line is skipped and counted, every other
        # entry loads, and the store stays usable.
        path = tmp_path / "wisdom.json"
        _, text = seeded_store(path, (4, 8))
        path.write_text(text[: len(text) - 10])
        store = WisdomStore(path)
        assert sizes_in(path) == [4]
        assert store.load_errors == 1
        record(store, 16)
        assert sizes_in(path) == [4, 16]

    def test_record_after_a_torn_tail_replays(self, tmp_path):
        # Regression: an append glued its line onto the torn one, so
        # the new record was lost on the next load.
        path = tmp_path / "wisdom.json"
        _, text = seeded_store(path, (2, 4))
        path.write_text(text[: len(text) - 10])  # chop mid-4
        record(WisdomStore(path), 8)
        fresh = WisdomStore(path)
        assert sizes_in(path) == [2, 8]
        assert fresh.load_errors == 1

    def test_empty_file_is_an_empty_journal(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text("")
        store = WisdomStore(path)
        assert len(store) == 0
        assert store.load_errors == 0
        record(store, 4)
        assert sizes_in(path) == [4]


class TestChecksum:
    def test_tampered_line_fails_its_checksum(self, tmp_path):
        path = tmp_path / "wisdom.json"
        _, text = seeded_store(path, (4, 8))
        lines = text.splitlines()
        line = json.loads(lines[0])
        line["result"]["entry"]["seconds"] = 0.0  # the tampering
        lines[0] = json.dumps(line)
        path.write_text("\n".join(lines) + "\n")
        store = WisdomStore(path)
        assert sizes_in(path) == [8]
        assert store.load_errors == 1

    def test_every_line_carries_a_valid_checksum(self, tmp_path):
        path = tmp_path / "wisdom.json"
        store, _ = seeded_store(path, (4, 8))
        lines, bad = read_journal(path)
        assert bad == 0
        assert [(result["platform"], result["entry"]["n"])
                for _, result in lines] == [(store.platform, 4),
                                            (store.platform, 8)]


class TestFilesThatAreNotOurs:
    def test_foreign_json_is_left_byte_identical(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({"hello": "world"}))
        before = path.read_bytes()
        store = WisdomStore(path)
        assert len(store) == 0
        assert store.load_errors == 1
        assert path.read_bytes() == before

    def test_pre_journal_store_is_a_cache_miss_and_not_rewritten(
            self, tmp_path):
        # A whole-document store from before the journal verifies on no
        # line: it loads empty (re-searched once) and load leaves it
        # alone; the first record's line then compacts it away.
        path = tmp_path / "wisdom.json"
        entry = {"transform": "fft-small", "n": 8, "formula": "(F 8)",
                 "seconds": 1.0, "mflops": 2.0, "meta": {}}
        path.write_text(json.dumps(
            {"format": "spl-wisdom", "version": 2,
             "platform": platform_fingerprint(), "checksum": "0" * 64,
             "entries": {"fft-small:8:x": entry}}, indent=1))
        before = path.read_bytes()
        store = WisdomStore(path)
        assert len(store) == 0
        assert path.read_bytes() == before
        record(store, 8)
        assert sizes_in(path) == [8]
        assert read_journal(path)[1] == 0  # the old document is gone


class TestCompaction:
    def test_dead_lines_outnumbering_live_ones_are_compacted(self, tmp_path):
        path = tmp_path / "wisdom.json"
        store = WisdomStore(path)
        for seconds in (3.0, 2.0, 1.0):
            record(store, 8, seconds=seconds)
        record(store, 4)
        assert store.invalidate(n=4) == 1
        assert len(path.read_text().splitlines()) == 5
        fresh = WisdomStore(path)  # 1 live line, 4 dead: compacts
        assert len(path.read_text().splitlines()) == 1
        assert fresh.lookup("fft-small", 8).seconds == 1.0
        assert WisdomStore(path).lookup("fft-small", 8).seconds == 1.0

    def test_live_set_is_not_compacted(self, tmp_path):
        path = tmp_path / "wisdom.json"
        _, text = seeded_store(path, (2, 4, 8))
        WisdomStore(path)
        assert path.read_text() == text

    def test_other_platforms_survive_compaction(self, tmp_path):
        path = tmp_path / "wisdom.json"
        record(WisdomStore(path, platform="machine-a"), 4)
        b = WisdomStore(path, platform="machine-b")
        for seconds in (4.0, 3.0, 2.0, 1.0):
            record(b, 8, seconds=seconds)
        WisdomStore(path, platform="machine-b")  # 2 live of 5: compacts
        assert len(path.read_text().splitlines()) == 2
        assert sizes_in(path, platform="machine-a") == [4]
        assert WisdomStore(path, platform="machine-b").lookup(
            "fft-small", 8).seconds == 1.0


class TestAtomicity:
    def test_writes_leave_no_temp_files(self, tmp_path):
        path = tmp_path / "wisdom.json"
        store, _ = seeded_store(path)
        for seconds in (3.0, 2.0):
            record(store, 8, seconds=seconds)
        WisdomStore(path)  # compacts
        leftovers = [p.name for p in tmp_path.iterdir()
                     if ".tmp" in p.name]
        assert leftovers == []

    def test_unwritable_path_counts_error_not_raise(self, tmp_path):
        store = WisdomStore(tmp_path)  # a directory: unwritable target
        store.record("fft-small", 8, formula="(F 8)", seconds=1.0,
                     mflops=2.0)
        assert store.save_errors >= 1


class TestTwoInstances:
    def test_two_instances_keep_distinct_keys(self, tmp_path):
        path = tmp_path / "wisdom.json"
        a = WisdomStore(path)
        b = WisdomStore(path)  # loaded before a ever wrote
        record(a, 4)
        record(b, 8)
        assert sizes_in(path) == [4, 8]

    def test_later_line_wins_key_conflicts(self, tmp_path):
        path = tmp_path / "wisdom.json"
        a = WisdomStore(path)
        b = WisdomStore(path)
        record(a, 8, seconds=9.0)
        record(b, 8, seconds=3.0)
        assert WisdomStore(path).lookup("fft-small", 8).seconds == 3.0


class TestNoWriterLosesALine:
    """Each of these lost an entry when every write rewrote the file."""

    def test_foreign_platform_writer_keeps_the_first_platform(self,
                                                              tmp_path):
        path = tmp_path / "wisdom.json"
        record(WisdomStore(path, platform="machine-a"), 4)
        record(WisdomStore(path, platform="machine-b"), 8)
        assert sizes_in(path, platform="machine-a") == [4]
        assert sizes_in(path, platform="machine-b") == [8]

    def test_eviction_keeps_a_concurrent_writers_newer_key(self, tmp_path):
        path = tmp_path / "wisdom.json"
        early = WisdomStore(path)
        record(early, 4)
        record(WisdomStore(path), 8)  # another writer, after early loaded
        assert early.validated_lookup(
            "fft-small", 4, validate=lambda entry: False) is None
        assert sizes_in(path) == [8]

    def test_invalidate_keeps_a_concurrent_writers_newer_key(self,
                                                             tmp_path):
        path = tmp_path / "wisdom.json"
        early = WisdomStore(path)
        record(early, 4)
        record(WisdomStore(path), 8)
        assert early.invalidate() == 1
        assert sizes_in(path) == [8]


#: One step of the two-writer property: (store, action, size).
STEPS = st.tuples(st.sampled_from((0, 1)),
                  st.sampled_from(("record", "evict", "invalidate",
                                   "load")),
                  st.sampled_from((2, 4, 8)))


@settings(max_examples=60, deadline=None)
@given(st.lists(STEPS, max_size=16))
def test_interleaved_writers_replay_to_the_dict_model(steps):
    """Two stores on one path, any interleaving: a fresh load equals a
    dict model in which the later line wins and a tombstone deletes.

    Each store appends only what its own view holds (a stale view's
    tombstone still deletes a newer line; a reload refreshes the view),
    and the loads along the way compact whenever dead lines dominate.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wisdom.json"
        stores = [WisdomStore(path), WisdomStore(path)]
        disk: dict[int, float] = {}
        views: list[dict[int, float]] = [{}, {}]
        for index, (which, action, n) in enumerate(steps):
            store, view = stores[which], views[which]
            if action == "record":
                record(store, n, seconds=float(index))
                view[n] = disk[n] = float(index)
            elif action == "load":
                store.load()
                view.clear()
                view.update(disk)
            elif n in view:
                if action == "evict":
                    store.validated_lookup("fft-small", n,
                                           validate=lambda entry: False)
                else:
                    assert store.invalidate(n=n) == 1
                del view[n]
                disk.pop(n, None)
            assert {e.n: e.seconds for e in store} == view
        fresh = WisdomStore(path)
        assert {e.n: e.seconds for e in fresh} == disk
        assert fresh.load_errors == 0


def _writer(path, sizes, start):
    start.wait()
    store = WisdomStore(path)
    for n in sizes:
        store.record("fft-small", n, formula=f"(F {n})",
                     seconds=float(n), mflops=1.0)


@requires_posix
class TestConcurrentWriters:
    def test_concurrent_processes_lose_no_updates(self, tmp_path):
        # The concurrent-writers test the CI fault-injection job runs:
        # several processes hammer one store file with distinct keys;
        # every appended line must survive.
        writers = 8 if FAULT_INJECT else 4
        per_writer = 3
        path = tmp_path / "wisdom.json"
        ctx = multiprocessing.get_context("fork")
        start = ctx.Event()
        jobs = []
        for i in range(writers):
            sizes = [1000 * (i + 1) + j for j in range(per_writer)]
            jobs.append(ctx.Process(target=_writer,
                                    args=(path, sizes, start)))
        for job in jobs:
            job.start()
        start.set()  # release every writer at once
        for job in jobs:
            job.join(60)
            assert job.exitcode == 0
        final = WisdomStore(path)
        for i in range(writers):
            for j in range(per_writer):
                n = 1000 * (i + 1) + j
                assert final.lookup("fft-small", n) is not None, n
        assert len(final) == writers * per_writer


class TestValidatedLookup:
    def _store_with_entry(self, tmp_path):
        path = tmp_path / "wisdom.json"
        store = WisdomStore(path)
        store.record("fft-small", 8, formula="(F 8)", seconds=1.0,
                     mflops=2.0)
        return store

    def test_rejected_entry_is_evicted_and_persisted_away(self, tmp_path):
        store = self._store_with_entry(tmp_path)
        assert store.validated_lookup(
            "fft-small", 8, validate=lambda entry: False) is None
        assert store.evictions == 1
        assert len(store) == 0
        # The eviction reached disk: a fresh load misses too.
        assert WisdomStore(store.path).lookup("fft-small", 8) is None

    def test_raising_validator_counts_as_rejection(self, tmp_path):
        store = self._store_with_entry(tmp_path)

        def explode(entry):
            raise RuntimeError("validator bug")

        assert store.validated_lookup(
            "fft-small", 8, validate=explode) is None
        assert store.evictions == 1

    def test_accepted_entry_survives(self, tmp_path):
        store = self._store_with_entry(tmp_path)
        entry = store.validated_lookup(
            "fft-small", 8, validate=lambda e: e.formula == "(F 8)")
        assert entry is not None
        assert store.evictions == 0


class TestSearchReplayValidation:
    def test_stale_wisdom_formula_is_evicted_and_remeasured(self, tmp_path):
        # Plant a wisdom entry whose formula is *not* an 8-point DFT
        # (the identity): the search must re-validate on replay, evict
        # it, and fall back to a real measured search.
        compiler = SplCompiler(CompilerOptions(
            unroll=True, optimize="default", datatype="complex",
            codetype="real", language="c",
        ))
        path = tmp_path / "wisdom.json"
        store = WisdomStore(path)
        store.record(SMALL_TRANSFORM, 8, compiler.options,
                     formula="(I 8)", seconds=1e-9, mflops=1e6)
        results = search_small_sizes(
            (8,), compiler=compiler, min_time=0.001, wisdom=store,
        )
        assert store.evictions == 1
        result = results[8]
        assert not result.from_wisdom
        assert result.candidates_tried > 0
        # The re-measured winner replaced the poison on disk.
        fresh = WisdomStore(path)
        entry = fresh.lookup(SMALL_TRANSFORM, 8, compiler.options)
        assert entry is not None
        assert entry.formula != "(I 8)"
