"""The paper's contribution: advanced transaction models implemented
as workflow processes.

* :mod:`repro.core.sagas` — Linear and Parallel Sagas [GMS87] with a
  native (transaction-model) executor used as the baseline.
* :mod:`repro.core.flexible` — Flexible Transactions [ELLR90, MRSK92,
  ZNBB94]: typed subtransactions, alternative execution paths, a native
  executor, and the well-formedness checker
  (:mod:`repro.core.wellformed`).
* :mod:`repro.core.compblock` — the translation kit every
  compensation-based model lowers onto: ``Member`` lists, one
  compensation-block builder, the dead-path and guarded constructions.
* :mod:`repro.core.saga_translator` — the Figure 2 construction:
  saga → workflow process (forward block + compensation block), the
  envelope parallel sagas share.
* :mod:`repro.core.flexible_translator` — the §4.2 seven-rule
  construction: flexible transaction → workflow process (Figure 4).
* :mod:`repro.core.bindings` — the one binding layer of the four
  compensation-based models: ``register_programs`` binds a
  translation's programs, ``workflow_outcome`` reads the model-level
  outcome back.
* :mod:`repro.core.speclang` — the textual specification language the
  Exotica/FMTM pre-processor consumes.
* :mod:`repro.core.fmtm` — the Figure 5 pipeline: specification →
  format check → FDL → import → semantic check → executable template →
  run-time instances.
"""

from repro.core.sagas import (
    SagaOutcome,
    SagaSpec,
    SagaStep,
    NativeSagaExecutor,
)
from repro.core.flexible import (
    FlexibleMember,
    FlexibleOutcome,
    FlexibleSpec,
    NativeFlexibleExecutor,
)
from repro.core.wellformed import check_well_formed
from repro.core.saga_translator import translate_saga
from repro.core.parallel_saga import translate_parallel_saga
from repro.core.flexible_translator import translate_flexible
from repro.core.contract import (
    ContractOutcome,
    ContractSpec,
    ContractStep,
    NativeContractExecutor,
    translate_contract,
)
from repro.core.speclang import parse_spec
from repro.core.fmtm import FMTMPipeline, PipelineReport
from repro.core.scoped import (
    ScopedOutcome,
    install_scope_service,
    register_pivot_chain_programs,
    register_scoped_saga_programs,
    translate_pivot_chain,
    translate_scoped_saga,
    workflow_scoped_outcome,
)

__all__ = [
    "ContractOutcome",
    "ContractSpec",
    "ContractStep",
    "FMTMPipeline",
    "FlexibleMember",
    "FlexibleOutcome",
    "FlexibleSpec",
    "NativeContractExecutor",
    "NativeFlexibleExecutor",
    "NativeSagaExecutor",
    "PipelineReport",
    "SagaOutcome",
    "SagaSpec",
    "SagaStep",
    "ScopedOutcome",
    "check_well_formed",
    "install_scope_service",
    "parse_spec",
    "register_pivot_chain_programs",
    "register_scoped_saga_programs",
    "translate_contract",
    "translate_flexible",
    "translate_parallel_saga",
    "translate_saga",
    "translate_scoped_saga",
    "workflow_scoped_outcome",
]
