"""Correctness conditions of §4, executable.

* :mod:`repro.spec.histories` — events, histories, well-formedness (§4.1).
* :mod:`repro.spec.linearizability` — atomic-register checking for
  unique-value histories (Herlihy-Wing linearizability [6]).
* :mod:`repro.spec.bft_linearizability` — Definition 1 (BFT-linearizability
  with the ``max-b`` lurking-write bound) and the §7.1 plus-form.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "History": "repro.spec.histories",
    "Invocation": "repro.spec.histories",
    "Response": "repro.spec.histories",
    "StopEvent": "repro.spec.histories",
    "Event": "repro.spec.histories",
    "OperationRecord": "repro.spec.histories",
    "LinearizabilityReport": "repro.spec.linearizability",
    "check_register_linearizable": "repro.spec.linearizability",
    "BftCheckResult": "repro.spec.bft_linearizability",
    "check_bft_linearizable": "repro.spec.bft_linearizability",
    "check_bft_linearizable_plus": "repro.spec.bft_linearizability",
    "count_lurking_writes": "repro.spec.bft_linearizability",
    "default_attribution": "repro.spec.bft_linearizability",
    "Lemma1Report": "repro.spec.invariants",
    "check_lemma1": "repro.spec.invariants",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
