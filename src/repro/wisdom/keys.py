"""Cache keys for the wisdom subsystem.

Two kinds of keys are produced here:

* **compile keys** — in-process memoization keys for
  :meth:`repro.core.compiler.SplCompiler.compile_formula`: the SPL text
  of the (already parsed and vectorized) formula plus every knob that
  changes the generated code;
* **wisdom keys** — persistent keys for best-found plans, combining
  the transform name, the size, a hash of the compiler options and a
  fingerprint of the host platform (FFTW's wisdom is likewise only
  valid on the machine that produced it).

This module deliberately imports nothing from :mod:`repro.core` so the
compiler driver can use it without an import cycle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Any


def options_fingerprint(options: object | None) -> str:
    """A stable, human-readable rendering of a compiler-options object.

    Works on any dataclass (field order is the declaration order, which
    is stable across runs); ``None`` means "default options".
    """
    if options is None:
        return "default"
    if is_dataclass(options) and not isinstance(options, type):
        pairs = ((f.name, getattr(options, f.name)) for f in fields(options))
        return ";".join(f"{name}={value!r}" for name, value in pairs)
    return repr(options)


def _digest(text: str, length: int = 16) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def canonical_sha256(obj: Any) -> str:
    """SHA-256 (hex) over the canonical JSON of ``obj`` (sorted keys, no
    whitespace): the one rendering every on-disk checksum — journal
    line (wisdom store and search journal), pack entry and whole pack —
    is taken over."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def options_hash(options: object | None) -> str:
    """A short stable hash of :func:`options_fingerprint`."""
    return _digest(options_fingerprint(options))


def compile_key(formula_spl: str, options: object | None, *,
                datatype: str | None, language: str | None,
                strided: bool, vectorize: int,
                template_version: int = 0,
                limits_fingerprint: str = "default") -> tuple:
    """The in-process memoization key for one ``compile_formula`` call.

    ``template_version`` folds in the compiler session's template-table
    version so that registering new templates (e.g. search-generated
    codelets) correctly invalidates earlier results.
    ``limits_fingerprint`` does the same for resource limits: a routine
    compiled under one budget must not satisfy a request made under
    another (tighter limits could have rejected it).
    """
    return (
        formula_spl,
        options_fingerprint(options),
        datatype,
        language,
        bool(strided),
        int(vectorize),
        int(template_version),
        limits_fingerprint,
    )


def platform_fingerprint() -> str:
    """A short hash identifying the host for persistent wisdom.

    Wisdom measured on one machine is meaningless on another, so the
    fingerprint covers exactly the inventory that determines generated
    code speed: the hardware of :func:`hardware_description` (CPU
    model, caches, OS and, where known, the ISA feature set the
    default build targets), the host C compiler (the Table 1 fields,
    minus total memory which does not affect codelet choice), plus the
    compilation mode — the flags ``SPL_CFLAGS`` appends to the host-ISA
    default build — so timings measured under one configuration never
    validate a cache built under another.  Nothing here starts a
    process but the compiler's version query, once per process.
    """
    return _digest(platform_description())


def platform_description() -> str:
    """The human-readable string behind :func:`platform_fingerprint`."""
    from repro.perfeval.ccompile import extra_cflags, host_isa

    return _host_description(extra_cflags(), host_isa())


def hardware_fingerprint() -> str:
    """A short hash of the host *hardware* alone: CPU, caches, OS and,
    where known, the ISA feature set (:func:`~repro.perfeval.ccompile.host_isa`).

    Unlike :func:`platform_fingerprint` this deliberately excludes the
    toolchain inventory (host compiler, ``SPL_CFLAGS``): wisdom
    *packs* ship portable artifacts precisely so a replica without the
    producer's toolchain can boot hot, so a pack is acceptable
    anywhere the hardware matches even when the compilation mode
    differs.  The ISA is hardware: the bundled artifacts are built for
    the producer's, and a host with another feature set, even under
    the same CPU model string, must refuse them.  Mutable stores keep
    using the strict fingerprint — their timings feed back into search
    decisions.  Computing it starts no process.
    """
    return _digest(hardware_description())


def hardware_description() -> str:
    """The human-readable string behind :func:`hardware_fingerprint`."""
    from repro.perfeval.ccompile import host_isa

    return _hardware_description(host_isa())


@lru_cache(maxsize=None)
def _hardware_description(isa: tuple[str, ...] | None) -> str:
    from repro.perfeval.platform import host_hardware

    return "|".join(host_hardware() + ((" ".join(isa),) if isa else ()))


@lru_cache(maxsize=None)
def _host_description(cflags: tuple[str, ...],
                      isa: tuple[str, ...] | None) -> str:
    # The inventory is immutable per process; only the flag set (and,
    # under test, the ISA) varies, so cache one description each.
    from repro.perfeval.platform import host_compiler

    return "|".join((_hardware_description(isa), host_compiler(),
                     " ".join(cflags) or "-"))


def wisdom_key(transform: str, n: int, options: object | None = None,
               limits: object | None = None) -> str:
    """The persistent-store key: ``transform:n:options-hash``.

    The platform fingerprint is *not* part of the per-entry key — each
    journal line carries it beside the entry, and a store loads only
    the lines of its own platform.

    ``limits`` (a ``CompileLimits``-like object with a ``fingerprint()``
    method) is folded in only when it differs from the defaults, so
    plans searched under a constrained budget never masquerade as
    default-budget wisdom — while keys written by earlier versions stay
    valid for default-limit sessions.
    """
    key = f"{transform}:{n}:{options_hash(options)}"
    if limits is not None:
        fingerprint = limits.fingerprint()
        try:
            from repro.core.limits import DEFAULT_LIMITS
            is_default = fingerprint == DEFAULT_LIMITS.fingerprint()
        except ImportError:  # pragma: no cover - core always importable
            is_default = False
        if not is_default:
            key += f":l{_digest(fingerprint, 8)}"
    return key
