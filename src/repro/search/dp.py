"""Small-size FFT search: dynamic programming over Equation 10 (§4.1).

"For the small sizes, we used dynamic programming over all possible
factorizations using Equation 10 and, for each size, we selected the
factorization with the lowest execution time."

Sizes are processed in increasing order; when a factorization uses a
sub-transform ``F_m`` for an already-solved ``m``, the best known
formula for ``m`` is substituted as the leaf, which is what makes this
dynamic programming rather than exhaustive tree search.

With a :class:`repro.wisdom.WisdomStore` attached, previously found
winners are replayed without any re-measurement (FFTW's wisdom) —
after being re-validated against the interpreter backend, so a stale
or tampered store entry is evicted instead of trusted; with
``jobs > 1`` cold searches compile and time candidates concurrently
with a deterministic winner (ties broken on candidate index).

Fault tolerance: with a ``sandbox`` policy, candidates are compiled
and timed on ``jobs`` leased worker processes
(:mod:`repro.search.queue`); one that segfaults, hangs or emits NaN is
skipped (and quarantined) and the search keeps going over the
survivors instead of aborting, and with a journal a killed search
resumes from the measurements it had finished.  Sizes are processed
serially — the leaf substitution makes size ``n`` depend on every
solved ``m < n`` — but within a size the whole candidate x threshold
grid fans out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.errors import SplError
from repro.core.nodes import Formula, fourier
from repro.core.parser import parse_formula_text
from repro.generator.fft_rules import enumerate_ct_formulas
from repro.perfeval.sandbox import Quarantine, SandboxPolicy
from repro.search.measure import measure_formulas, validate_fft_formula
from repro.search.queue import TaskJournal
from repro.wisdom.parallel import pick_winner
from repro.wisdom.store import WisdomStore

SMALL_TRANSFORM = "fft-small"


@dataclass
class SearchResult:
    """Best formula found for one transform size."""

    n: int
    formula: Formula
    seconds: float
    mflops: float
    candidates_tried: int
    from_wisdom: bool = False
    candidates_failed: int = 0  # quarantined/skipped during measurement
    # The winning "-B" unroll threshold when the search swept one
    # (None: the compiler's own unroll setting was used unswept).
    unroll_threshold: int | None = None

    def describe(self) -> str:
        source = "wisdom" if self.from_wisdom \
            else f"{self.candidates_tried} candidates"
        if self.candidates_failed:
            source += f", {self.candidates_failed} failed"
        suffix = ""
        if self.unroll_threshold is not None:
            suffix = f" [-B {self.unroll_threshold}]"
        return (
            f"F_{self.n}: {self.mflops:8.1f} pseudo-MFlops "
            f"({source}){suffix} {self.formula.to_spl()}"
        )


def default_small_compiler() -> SplCompiler:
    """Straight-line code, real arithmetic — the paper's §4.1 setup."""
    return SplCompiler(CompilerOptions(
        unroll=True, optimize="default", datatype="complex",
        codetype="real", language="c",
    ))


def compiler_with_threshold(compiler: SplCompiler,
                            threshold: int) -> SplCompiler:
    """A variant compiler unrolling only transforms of size <= threshold.

    The paper's ``-B`` knob as a search dimension: ``unroll`` is
    forced off so the threshold alone decides which sub-transforms
    become straight-line codelets.  Templates and defines are shared
    with the source compiler (they are read-only during measurement);
    the compile memo is not, since memo keys include the options.
    """
    variant = SplCompiler(
        replace(compiler.options, unroll=False,
                unroll_threshold=threshold),
        compiler.limits,
    )
    variant.templates = compiler.templates
    variant.defines = compiler.defines
    return variant


def search_small_sizes(sizes: tuple[int, ...] = (2, 4, 8, 16, 32, 64), *,
                       compiler: SplCompiler | None = None,
                       rules: tuple[str, ...] = ("multi",),
                       max_candidates: int | None = None,
                       min_time: float = 0.005,
                       wisdom: WisdomStore | None = None,
                       jobs: int = 1,
                       sandbox: SandboxPolicy | None = None,
                       quarantine: Quarantine | None = None,
                       journal_path: str | None = None,
                       unroll_thresholds: tuple[int, ...] | None = None,
                       verbose: bool = False) -> dict[int, SearchResult]:
    """Run the paper's small-size dynamic-programming search.

    Returns, for each size, the fastest formula found together with
    its measured time.  ``max_candidates`` caps the per-size candidate
    count for quick runs; ``wisdom`` replays remembered winners with
    zero re-measurement (each replayed formula is first re-validated
    numerically and evicted on mismatch); ``jobs`` measures candidates
    concurrently; ``sandbox`` isolates measurement in worker processes
    so crashing/hanging/NaN candidates are skipped and quarantined
    rather than fatal, and ``journal_path`` then makes the run
    resumable — a search killed mid-run restarts from the journal and
    re-measures only the missing candidates.

    ``unroll_thresholds`` adds the paper's ``-B`` knob as a second
    search dimension: every candidate formula is compiled and measured
    once per threshold (``unroll`` forced off, so the threshold alone
    decides which sub-transforms unroll into codelets), and the
    (formula, threshold) pair with the lowest time wins.  The winning
    threshold is recorded in wisdom (``meta["unroll_threshold"]``)
    along with the swept values (``meta["threshold_sweep"]``); a
    replayed entry whose sweep differs from the current call's is
    treated as a miss and evicted, so wisdom produced under one search
    space is never silently replayed in another.
    """
    compiler = compiler or default_small_compiler()
    journal = TaskJournal(journal_path) if journal_path else None
    sweep = tuple(sorted(set(unroll_thresholds))) \
        if unroll_thresholds else None
    variants = {
        threshold: compiler_with_threshold(compiler, threshold)
        for threshold in (sweep or ())
    }
    best: dict[int, SearchResult] = {}

    def leaf(m: int) -> Formula:
        result = best.get(m)
        return result.formula if result is not None else fourier(m)

    for n in sorted(sizes):
        entry = None
        if wisdom is not None:
            replayed: dict[str, Formula] = {}

            def check(candidate_entry, n=n, replayed=replayed) -> bool:
                # An entry searched under a different -B sweep answers
                # a different question: treat it as a miss (and evict)
                # rather than replay it into this search space.
                recorded_sweep = candidate_entry.meta.get(
                    "threshold_sweep") or []
                if list(sweep or ()) != list(recorded_sweep):
                    return False
                formula = parse_formula_text(candidate_entry.formula,
                                             compiler.defines)
                if not validate_fft_formula(compiler, formula, n):
                    return False
                replayed["formula"] = formula
                return True

            entry = wisdom.validated_lookup(SMALL_TRANSFORM, n,
                                            compiler.options, validate=check)
        if entry is not None:
            best[n] = SearchResult(
                n=n,
                formula=replayed["formula"],
                seconds=entry.seconds,
                mflops=entry.mflops,
                candidates_tried=0,
                from_wisdom=True,
                unroll_threshold=entry.meta.get("unroll_threshold"),
            )
            if verbose:
                print(best[n].describe())
            continue
        # enumerate_ct_formulas returns a list today, but custom
        # enumerators may be lazy: materialize before counting.
        candidates = list(enumerate_ct_formulas(
            n, leaf=leaf, rules=rules, limit=max_candidates
        ))
        if not candidates:
            # Degenerate spaces (prime sizes under exotic rule sets, a
            # zero candidate cap) fall back to the direct O(n^2) leaf.
            candidates = [leaf(n)]
        # Without a sweep, candidates are measured once under the
        # session compiler; with one, once per threshold variant, and
        # the (formula, threshold) pair with the lowest time wins.
        tagged: list[tuple[int | None, object]] = []
        tried = 0
        for threshold, variant in (
                [(None, compiler)] if sweep is None
                else [(b, variants[b]) for b in sweep]):
            prefix = (f"spl_fft{n}_c" if threshold is None
                      else f"spl_fft{n}_b{threshold}_c")
            measurements = measure_formulas(
                variant, candidates, name_prefix=prefix,
                min_time=min_time, jobs=jobs,
                sandbox=sandbox, quarantine=quarantine, journal=journal,
            )
            tried += len(candidates)
            tagged.extend((threshold, m) for m in measurements)
        # getattr: stubbed/duck-typed measurements count as successes.
        usable = [(b, m) for b, m in tagged if getattr(m, "ok", True)]
        failed = len(tagged) - len(usable)
        if not usable:
            details = "; ".join(
                m.failure.describe() for _, m in tagged
                if getattr(m, "failure", None) is not None
            )
            message = (
                f"small-size search produced no measurable candidate for "
                f"F_{n} (rules={rules!r}, max_candidates={max_candidates!r}"
            )
            if details:
                message += f"; failures: {details[:400]}"
            raise SplError(message + ")")
        _, (winner_threshold, winner) = pick_winner(
            usable, key=lambda item: item[1].seconds)
        best[n] = SearchResult(
            n=n,
            formula=winner.formula,
            seconds=winner.seconds,
            mflops=winner.mflops,
            candidates_tried=tried,
            candidates_failed=failed,
            unroll_threshold=winner_threshold,
        )
        if wisdom is not None:
            meta = {
                "rules": list(rules),
                "candidates_tried": tried,
            }
            if sweep is not None:
                meta["unroll_threshold"] = winner_threshold
                meta["threshold_sweep"] = list(sweep)
            wisdom.record(
                SMALL_TRANSFORM, n, compiler.options,
                formula=winner.formula.to_spl(),
                seconds=winner.seconds,
                mflops=winner.mflops,
                **meta,
            )
        if verbose:
            print(best[n].describe())
    return best
