"""Performance evaluation (the SPIRAL component of Figure 1).

Provides the measurement substrate for the experiments in Section 4:

* :mod:`repro.perfeval.ccompile` — compile generated C with the host C
  compiler and load it through ctypes (the timed execution path);
* :mod:`repro.perfeval.timing` — robust timing and the paper's
  "pseudo MFlops" metric ``5 N log2(N) / t``;
* :mod:`repro.perfeval.memory` — memory accounting for Figure 5;
* :mod:`repro.perfeval.accuracy` — relative error measurement in the
  style of benchfft, for Figure 6;
* :mod:`repro.perfeval.platform` — the host's "Table 1" row;
* :mod:`repro.perfeval.sandbox` — the isolation policy, structured
  failures and candidate quarantine for measuring untrusted generated
  code (the workers themselves are :mod:`repro.search.queue`).
"""

from repro.perfeval.ccompile import CCompileError, have_c_compiler
from repro.perfeval.sandbox import (
    CandidateFailure,
    Quarantine,
    SandboxPolicy,
    default_quarantine,
    sandbox_supported,
)
from repro.perfeval.timing import pseudo_mflops, time_callable

__all__ = [
    "CCompileError",
    "CandidateFailure",
    "Quarantine",
    "SandboxPolicy",
    "default_quarantine",
    "have_c_compiler",
    "pseudo_mflops",
    "sandbox_supported",
    "time_callable",
]
