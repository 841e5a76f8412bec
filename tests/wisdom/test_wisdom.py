"""Tests for the wisdom subsystem: keys, store, parallel measurement,
the in-process compile memo, and warm-store search replay."""

import json
from types import SimpleNamespace

import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.nodes import fourier
from repro.fftw.planner import Planner
from repro.wisdom import (
    WisdomStore,
    compile_key,
    map_indexed,
    options_fingerprint,
    options_hash,
    pick_winner,
    platform_fingerprint,
    resolve_jobs,
    wisdom_key,
)
from repro.search.queue import TaskJournal


def fake_measurements(compiler, formulas, **kwargs):
    """Deterministic stub: candidate i takes (i+1) ms."""
    return [
        SimpleNamespace(formula=formula, seconds=0.001 * (index + 1),
                        mflops=100.0 / (index + 1))
        for index, formula in enumerate(formulas)
    ]


class TestKeys:
    def test_options_fingerprint_stable_and_distinct(self):
        a = CompilerOptions(datatype="real")
        b = CompilerOptions(datatype="real")
        c = CompilerOptions(datatype="complex")
        assert options_fingerprint(a) == options_fingerprint(b)
        assert options_fingerprint(a) != options_fingerprint(c)
        assert options_hash(a) == options_hash(b)
        assert options_hash(a) != options_hash(c)

    def test_none_options(self):
        assert options_fingerprint(None) == "default"
        assert len(options_hash(None)) == 16

    def test_compile_key_covers_every_knob(self):
        base = dict(datatype=None, language=None, strided=False,
                    vectorize=1, template_version=0)
        key = compile_key("(F 4)", None, **base)
        for change in (
            dict(base, datatype="real"),
            dict(base, language="c"),
            dict(base, strided=True),
            dict(base, vectorize=2),
            dict(base, template_version=1),
        ):
            assert compile_key("(F 4)", None, **change) != key
        assert compile_key("(F 8)", None, **base) != key
        assert compile_key("(F 4)", None, **base) == key

    def test_wisdom_key_shape(self):
        key = wisdom_key("fft-small", 16, None)
        assert key.startswith("fft-small:16:")

    def test_platform_fingerprint_is_stable(self):
        assert platform_fingerprint() == platform_fingerprint()
        assert len(platform_fingerprint()) == 16


class TestStore:
    def test_hit_and_miss_counters(self):
        store = WisdomStore()
        assert store.lookup("fft-small", 8) is None
        assert store.stats()["misses"] == 1
        store.record("fft-small", 8, formula="(F 8)", seconds=1.0,
                     mflops=2.0)
        entry = store.lookup("fft-small", 8)
        assert entry is not None and entry.formula == "(F 8)"
        assert store.stats()["hits"] == 1
        assert store.stats()["stores"] == 1

    def test_options_partition_the_table(self):
        store = WisdomStore()
        store.record("fft-small", 8, CompilerOptions(unroll=True),
                     formula="(F 8)", seconds=1.0, mflops=2.0)
        assert store.lookup("fft-small", 8, CompilerOptions()) is None
        assert store.lookup("fft-small", 8,
                            CompilerOptions(unroll=True)) is not None

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "wisdom.json"
        store = WisdomStore(path)
        store.record("fft-small", 8, formula="(F 8)", seconds=0.5,
                     mflops=3.0, rules=["multi"])
        assert path.exists()
        assert store.stats()["bytes_written"] > 0
        reloaded = WisdomStore(path)
        entry = reloaded.lookup("fft-small", 8)
        assert entry is not None
        assert entry.seconds == 0.5
        assert entry.meta["rules"] == ["multi"]

    def test_corrupt_file_falls_back_empty(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text("{ this is not json")
        store = WisdomStore(path)
        assert len(store) == 0
        assert store.stats()["load_errors"] == 1

    def test_wrong_format_falls_back_empty(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({"format": "something-else"}))
        store = WisdomStore(path)
        assert len(store) == 0
        assert store.stats()["load_errors"] == 1

    def test_verified_lines_of_another_shape_fall_back_empty(self,
                                                            tmp_path):
        # A search journal is the same line format with other results:
        # every line verifies, none is a store record, and the file is
        # not ours to rewrite.
        path = tmp_path / "wisdom.json"
        journal = TaskJournal(path)
        journal.append("fft-small:8:x", {"ok": True, "seconds": 1.0})
        journal.append("fft-small:4:x", {"ok": True, "seconds": 2.0})
        before = path.read_bytes()
        store = WisdomStore(path)
        assert len(store) == 0
        assert store.stats()["load_errors"] == 2
        assert path.read_bytes() == before

    def test_platform_mismatch_falls_back_empty(self, tmp_path):
        path = tmp_path / "wisdom.json"
        producer = WisdomStore(path, platform="machine-a")
        producer.record("fft-small", 8, formula="(F 8)", seconds=1.0,
                        mflops=1.0)
        consumer = WisdomStore(path, platform="machine-b")
        assert len(consumer) == 0
        assert consumer.stats()["platform_mismatches"] == 1
        # The original machine still reads its own wisdom.
        again = WisdomStore(path, platform="machine-a")
        assert len(again) == 1

    def test_unwritable_path_degrades_gracefully(self, tmp_path):
        # Pointing wisdom at a directory must not kill the search that
        # produced the entry: record() keeps the in-memory table and
        # reports the failed append through a counter.
        store = WisdomStore(tmp_path)  # tmp_path is a directory
        entry = store.record("fft-small", 8, formula="(F 8)", seconds=1.0,
                             mflops=1.0)
        assert entry is not None
        assert len(store) == 1
        assert store.stats()["save_errors"] >= 1
        assert store.stats()["saves"] == 0

    def test_invalidate(self, tmp_path):
        store = WisdomStore(tmp_path / "wisdom.json")
        store.record("fft-small", 8, formula="(F 8)", seconds=1.0, mflops=1.0)
        store.record("fft-small", 16, formula="(F 16)", seconds=1.0,
                     mflops=1.0)
        store.record("fft-large", 128, formula="x", seconds=1.0, mflops=1.0)
        assert store.invalidate("fft-small", 8) == 1
        assert store.invalidate("fft-large") == 1
        assert len(store) == 1
        assert len(WisdomStore(store.path)) == 1  # persisted
        assert store.invalidate() == 1
        assert len(store) == 0

    def test_describe(self):
        store = WisdomStore()
        assert "wisdom[<memory>]" in store.describe()
        assert "0 entries" in store.describe()


class TestParallelHelpers:
    def test_map_indexed_preserves_order(self):
        items = list(range(20))
        serial = map_indexed(items, lambda i, x: (i, x * x), jobs=1)
        threaded = map_indexed(items, lambda i, x: (i, x * x), jobs=4)
        assert serial == threaded == [(i, i * i) for i in items]

    def test_pick_winner_ties_break_on_lowest_index(self):
        results = [(1.0, "a"), (0.5, "b"), (0.5, "c"), (0.7, "d")]
        index, winner = pick_winner(results, key=lambda r: r[0])
        assert index == 1 and winner == (0.5, "b")

    def test_pick_winner_rejects_empty(self):
        with pytest.raises(ValueError):
            pick_winner([], key=lambda r: r)

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(-3) == 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1


class TestCompileMemo:
    def test_repeat_compile_hits_cache(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        first = compiler.compile_formula("(F 4)", "a", language="python")
        second = compiler.compile_formula("(F 4)", "b", language="python")
        assert second is first  # the memo keeps the first call's name
        stats = compiler.compile_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_knobs_miss(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        a = compiler.compile_formula("(F 4)", "a", language="python")
        b = compiler.compile_formula("(F 4)", "b", language="python",
                                     vectorize=2)
        assert b is not a

    def test_template_registration_invalidates(self):
        from repro.formulas.factorization import ct_dit
        from repro.search.large import register_codelet_template

        compiler = SplCompiler(CompilerOptions(language="python"))
        first = compiler.compile_formula("(F 4)", "a")
        register_codelet_template(compiler, 4, ct_dit(2, 2))
        second = compiler.compile_formula("(F 4)", "b")
        assert second is not first

    def test_clear_compile_cache(self):
        compiler = SplCompiler(CompilerOptions(language="python"))
        first = compiler.compile_formula("(I 4)", "a")
        compiler.clear_compile_cache()
        assert compiler.compile_formula("(I 4)", "b") is not first


class TestExplicitArgumentPrecedence:
    def test_explicit_datatype_beats_session_options(self):
        compiler = SplCompiler(CompilerOptions(datatype="complex"))
        routine = compiler.compile_formula("(I 4)", "r", datatype="real")
        assert routine.program.datatype == "real"
        assert routine.program.element_width == 1

    def test_session_datatype_still_applies_by_default(self):
        compiler = SplCompiler(CompilerOptions(datatype="complex"))
        routine = compiler.compile_formula("(I 4)", "c")
        assert routine.program.datatype == "complex"

    def test_explicit_language_beats_session_options(self):
        compiler = SplCompiler(CompilerOptions(language="c",
                                               codetype="real"))
        routine = compiler.compile_formula("(I 4)", "p", language="python")
        assert routine.language == "python"
        assert "def p(" in routine.source

    def test_directives_still_overridden_by_session(self):
        # compile_text keeps the old precedence: session options beat
        # in-file #directives.
        compiler = SplCompiler(CompilerOptions(language="python",
                                               codetype="real"))
        routines = compiler.compile_text("#language fortran\n(I 2)\n")
        assert routines[0].language == "python"


class TestWarmSearchReplaysWithoutMeasuring:
    def test_small_search_zero_remeasurements(self, tmp_path, monkeypatch):
        import repro.search.dp as dp

        calls = {"measured": 0}

        def counting_measure(compiler, formulas, **kwargs):
            calls["measured"] += len(formulas)
            return fake_measurements(compiler, formulas)

        monkeypatch.setattr(dp, "measure_formulas", counting_measure)
        path = tmp_path / "wisdom.json"
        cold = dp.search_small_sizes((2, 4, 8), wisdom=WisdomStore(path))
        assert calls["measured"] > 0

        calls["measured"] = 0
        warm_store = WisdomStore(path)
        warm = dp.search_small_sizes((2, 4, 8), wisdom=warm_store)
        assert calls["measured"] == 0
        assert warm_store.stats()["hits"] == 3
        assert warm_store.stats()["misses"] == 0
        for n in (2, 4, 8):
            assert warm[n].from_wisdom
            assert warm[n].candidates_tried == 0
            assert warm[n].formula.to_spl() == cold[n].formula.to_spl()
            assert "(wisdom)" in warm[n].describe()

    def test_wisdom_respects_compiler_options(self, tmp_path, monkeypatch):
        import repro.search.dp as dp

        monkeypatch.setattr(dp, "measure_formulas", fake_measurements)
        path = tmp_path / "wisdom.json"
        compiler_a = SplCompiler(CompilerOptions(
            unroll=True, datatype="complex", codetype="real", language="c"))
        dp.search_small_sizes((4,), compiler=compiler_a,
                              wisdom=WisdomStore(path))
        # Different options hash: no replay, a fresh search runs.
        compiler_b = SplCompiler(CompilerOptions(
            datatype="complex", codetype="real", language="c"))
        store = WisdomStore(path)
        result = dp.search_small_sizes((4,), compiler=compiler_b,
                                       wisdom=store)
        assert not result[4].from_wisdom
        assert store.stats()["misses"] == 1


class _FakePlanLibrary:
    """Duck-typed FftwLibrary: counts how many candidates get timed."""

    codelet_sizes = (2, 4, 8)

    def __init__(self):
        self.timed = 0

    def codelet_flops(self, n):
        return 5 * n

    def transform(self, plan):
        outer = self

        class _Transform:
            def timer_closure(self):
                outer.timed += 1
                return lambda: None

        return _Transform()


class TestWarmPlannerReplaysWithoutMeasuring:
    def test_measure_mode_zero_timings_when_warm(self, tmp_path):
        path = tmp_path / "wisdom.json"
        cold_lib = _FakePlanLibrary()
        cold = Planner(cold_lib, min_time=1e-5, wisdom=WisdomStore(path))
        cold_plan = cold.plan_measure(64)
        assert cold_lib.timed > 0
        assert cold.candidates_timed == cold_lib.timed

        warm_lib = _FakePlanLibrary()
        warm = Planner(warm_lib, min_time=1e-5, wisdom=WisdomStore(path))
        warm_plan = warm.plan_measure(64)
        assert warm_lib.timed == 0
        assert warm.candidates_timed == 0
        assert warm_plan.radices == cold_plan.radices

    def test_estimate_mode_round_trips(self, tmp_path):
        path = tmp_path / "wisdom.json"
        cold = Planner(_FakePlanLibrary(), wisdom=WisdomStore(path))
        cold_plan = cold.plan_estimate(128)
        warm = Planner(_FakePlanLibrary(), wisdom=WisdomStore(path))
        assert warm.plan_estimate(128).radices == cold_plan.radices

    def test_codelet_set_partitions_wisdom(self, tmp_path):
        path = tmp_path / "wisdom.json"
        cold = Planner(_FakePlanLibrary(), min_time=1e-5,
                       wisdom=WisdomStore(path))
        cold.plan_measure(64)

        class _OtherLibrary(_FakePlanLibrary):
            codelet_sizes = (2, 4)

        other_lib = _OtherLibrary()
        other = Planner(other_lib, min_time=1e-5, wisdom=WisdomStore(path))
        other.plan_measure(64)
        assert other_lib.timed > 0  # different codelets: no stale replay


class TestDeterminism:
    def test_parallel_and_serial_pick_the_same_winner(self, monkeypatch):
        import repro.search.measure as sm
        from repro.search.dp import search_small_sizes

        # Constant stubbed timings: every candidate ties, so only the
        # index tie-break decides — parallel order must not leak in.
        monkeypatch.setattr(
            sm, "time_callable",
            lambda fn, *, min_time=0.0, repeats=1: 0.001,
        )
        serial = search_small_sizes((8,), max_candidates=4, jobs=1)
        parallel = search_small_sizes((8,), max_candidates=4, jobs=4)
        assert serial[8].formula.to_spl() == parallel[8].formula.to_spl()
        assert serial[8].seconds == parallel[8].seconds
