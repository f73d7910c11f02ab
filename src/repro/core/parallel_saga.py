"""Parallel / generalised sagas as workflow processes (§4.1's "the
same ideas apply to the more general case" [GMGK+91b]).

A parallel saga's steps form a DAG; the forward block of the saga
envelope (:func:`repro.core.saga_translator.lower_saga`) mirrors it
directly.  Figure 2's dead-path compensation chain assumes the executed
steps form a *prefix* of one chain, while after an abort in a DAG the
committed set is any downward-closed set.  So this translation lowers
the saga with the **guarded** construction of
:mod:`repro.core.compblock`: every compensating activity runs, along
the reversed DAG edges, and compensates only a step that committed.
The envelope gates compensation on the ``State`` flags (any step that
did not commit) rather than the block RC, because a parallel sibling
may finish after the aborted step.

The guarded construction works for linear sagas too, which makes it
the **ablation** against Figure 2: dead-path elimination starts j - 1
compensating activities at abort position j, guarding starts all n and
skips inside the program.  ``benchmarks/bench_ablation_comp.py``
compares them; the exhaustive walker (``tests/exhaustive.py``) finds
both behaviourally identical on every outcome vector.
"""

from __future__ import annotations

from repro.core.compblock import GUARDED, Translation
from repro.core.sagas import SagaSpec
from repro.core.saga_translator import lower_saga


def translate_parallel_saga(
    spec: SagaSpec, *, max_compensation_attempts: int = 100
) -> Translation:
    """Translate a (possibly DAG-shaped) saga using the guarded
    compensation construction; linear sagas are accepted too."""
    return lower_saga(spec, GUARDED, False, max_compensation_attempts)
