"""Engine-aware static analysis and runtime invariant sanitizers.

The engine's whole design bet — native XML storage reusing relational
infrastructure — holds only while every component obeys the substrate's
protocols: pin/unpin pairing on the buffer pool, no raw-disk access around
it, one global lock-acquisition order, log-before-flush, and a sound metric
namespace.  This package machine-checks those contracts twice over:

* statically: ``python -m repro.analyze src/`` runs AST-based checkers
  (:mod:`~repro.analyze.pins`, :mod:`~repro.analyze.rawdisk`,
  :mod:`~repro.analyze.lockorder`, :mod:`~repro.analyze.waldiscipline`,
  :mod:`~repro.analyze.statshygiene`, :mod:`~repro.analyze.races`) against
  the tree, with a documented suppression baseline
  (:mod:`~repro.analyze.baseline`);
* dynamically: :mod:`~repro.analyze.sanitize` arms assertions inside the
  buffer pool, lock manager, WAL and transaction manager (zero pins and
  zero locks at every transaction boundary, LSN monotonicity, witnessed
  lock order), tripped as ``sanitize.*`` counters plus
  :class:`~repro.errors.SanitizerError`.

The concurrency layer extends both halves: :mod:`~repro.analyze.threads`
derives thread roots, thread-shared fields and each field's inferred
guarding latch from the call graph; :mod:`~repro.analyze.races` checks the
latch discipline (``RACE001`` unguarded shared access, ``RACE002``
check-then-act across a latch release, ``LATCH001`` latch held across a
blocking call); and the sanitizer's Eraser-style lockset machinery
(:class:`~repro.analyze.sanitize.TrackedLock`, ``shared_access``) witnesses
the same guards at runtime, cross-checked against the static inference via
``cross_check_field_guards``.
"""

import importlib
from typing import Any

#: Public names and the submodule defining each, imported on first use:
#: the engine imports only :mod:`~repro.analyze.sanitize`, and loading the
#: static checkers (and the stdlib modules they use) with it would add up
#: to ~5 MB to every engine process.
_EXPORTS = {
    "Baseline": "baseline", "BaselineError": "baseline",
    "write_baseline": "baseline", "all_checkers": "cli", "main": "cli",
    "Finding": "findings", "Severity": "findings", "Checker": "framework",
    "SourceModule": "framework", "iter_python_files": "framework",
    "run_checkers": "framework",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"),
                   name)


__all__ = [
    "Baseline",
    "BaselineError",
    "Checker",
    "Finding",
    "Severity",
    "SourceModule",
    "all_checkers",
    "iter_python_files",
    "main",
    "run_checkers",
    "write_baseline",
]
