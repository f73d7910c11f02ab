"""FlowMark-style workflow management system (the paper's substrate).

This package implements the WfMC/FlowMark metamodel described in §3.2 of
the paper: process definitions made of activities wired by control
connectors (with transition conditions) and data connectors (container
field mappings), typed input/output data containers, AND/OR start
conditions, exit conditions (which give loops), dead-path elimination,
block activities for nesting, an organization model with worklists, a
persistent journal providing forward recovery, and an audit trail.

The public entry point is :class:`repro.wfms.engine.Engine`.
"""

from repro.wfms.datatypes import DataType, StructureType, VariableDecl
from repro.wfms.conditions import Condition, parse_condition
from repro.wfms.model import (
    Activity,
    ActivityKind,
    ControlConnector,
    DataConnector,
    ProcessDefinition,
    StartMode,
    StartCondition,
)
from repro.wfms.containers import Container
from repro.wfms.instance import ActivityState, ProcessState
from repro.wfms.programs import ProgramRegistry, program_from_callable
from repro.wfms.organization import Organization, Person, Role
from repro.wfms.engine import Engine
from repro.wfms.messaging import MessageBus
from repro.wfms.distributed import WorkflowNode, run_cluster
from repro.wfms.sharding import (
    ANY_SHARD,
    ShardedEngine,
    shard_of,
)
from repro.wfms.simulate import ActivityProfile, SimulationReport, simulate
from repro.wfms.registry import DefinitionRegistry

__all__ = [
    "ANY_SHARD",
    "Activity",
    "ActivityKind",
    "ActivityProfile",
    "ActivityState",
    "Condition",
    "Container",
    "ControlConnector",
    "DataConnector",
    "DataType",
    "DefinitionRegistry",
    "Engine",
    "MessageBus",
    "ShardedEngine",
    "SimulationReport",
    "WorkflowNode",
    "run_cluster",
    "shard_of",
    "simulate",
    "Organization",
    "Person",
    "ProcessDefinition",
    "ProcessState",
    "ProgramRegistry",
    "Role",
    "StartCondition",
    "StartMode",
    "StructureType",
    "VariableDecl",
    "parse_condition",
    "program_from_callable",
]
