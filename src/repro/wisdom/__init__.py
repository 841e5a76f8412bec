"""Wisdom: memoized compilation and persistent best-plan storage.

FFTW amortizes planning cost with *wisdom* — remembered planner
outcomes keyed by machine and problem.  This package gives the
reproduction the same capability at three levels:

* :mod:`repro.wisdom.keys` — cache-key construction (compile keys,
  options hashes, the host platform fingerprint);
* :mod:`repro.wisdom.store` — :class:`WisdomStore`, a table of
  best-found formulas/plans backed by a checksummed append-only journal
  (the search journal's format), with hit/miss/bytes counters and
  graceful fallback on damaged lines or foreign files;
* :mod:`repro.wisdom.parallel` — in-process concurrent candidate
  measurement with deterministic winner selection.

The in-process half (memoizing ``SplCompiler.compile_formula``) lives
inside the compiler session itself but builds its keys here.
"""

from repro.wisdom.keys import (
    compile_key,
    options_fingerprint,
    options_hash,
    platform_fingerprint,
    wisdom_key,
)
from repro.wisdom.parallel import (
    map_indexed,
    pick_winner,
    resolve_jobs,
)
from repro.wisdom.store import WISDOM_VERSION, WisdomEntry, WisdomStore

__all__ = [
    "WISDOM_VERSION",
    "WisdomEntry",
    "WisdomStore",
    "compile_key",
    "map_indexed",
    "options_fingerprint",
    "options_hash",
    "pick_winner",
    "platform_fingerprint",
    "resolve_jobs",
    "wisdom_key",
]
