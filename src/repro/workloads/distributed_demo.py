"""Builders for the distributed-workflow demo topology.

A ``worker`` node serves a ``Double`` process; a requester node runs a
``Front`` process that calls it remotely and then adds one.  Shared by
the distributed tests, the DIST benchmark and the example.
"""

from __future__ import annotations

from repro.wfms import Activity, DataType, ProcessDefinition, VariableDecl
from repro.wfms.distributed import WorkflowNode
from repro.wfms.messaging import MessageBus
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT


def configure_worker(node: WorkflowNode) -> None:
    """(Re-)register the worker's Double process on ``node``."""

    def double(ctx):
        ctx.set_output("Out", ctx.get_input("In") * 2)
        return 0

    node.engine.register_program("double", double, replace=True)
    defn = ProcessDefinition(
        "Double",
        input_spec=[VariableDecl("In", DataType.LONG)],
        output_spec=[VariableDecl("Out", DataType.LONG)],
    )
    defn.add_activity(
        Activity(
            "D",
            program="double",
            input_spec=[VariableDecl("In", DataType.LONG)],
            output_spec=[VariableDecl("Out", DataType.LONG)],
        )
    )
    defn.map_data(PROCESS_INPUT, "D", [("In", "In")])
    defn.map_data("D", PROCESS_OUTPUT, [("Out", "Out")])
    node.serve(defn)


def make_worker(
    bus: MessageBus,
    name: str = "worker",
    observability=None,
    **node_kwargs,
) -> WorkflowNode:
    node = WorkflowNode(
        name,
        bus,
        observability=observability,
        **node_kwargs,
    )
    configure_worker(node)
    return node


def configure_requester(
    node: WorkflowNode,
    worker: str = "worker",
    remote_kwargs: dict | None = None,
) -> None:
    """(Re-)register the requester's Front process on ``node``.

    ``remote_kwargs`` forwards resilience knobs (``timeout``,
    ``retries``, ``poll_interval``) to the remote activity."""
    remote = node.remote_activity(
        "CallDouble",
        process="Double",
        node=worker,
        input_spec=[VariableDecl("In", DataType.LONG)],
        output_spec=[VariableDecl("Out", DataType.LONG)],
        **(remote_kwargs or {}),
    )

    def add_one(ctx):
        ctx.set_output("Final", ctx.get_input("Base") + 1)
        return 0

    node.engine.register_program("add_one", add_one, replace=True)
    defn = ProcessDefinition(
        "Front",
        input_spec=[VariableDecl("N", DataType.LONG)],
        output_spec=[VariableDecl("Result", DataType.LONG)],
    )
    defn.add_activity(remote)
    defn.add_activity(
        Activity(
            "AddOne",
            program="add_one",
            input_spec=[VariableDecl("Base", DataType.LONG)],
            output_spec=[VariableDecl("Final", DataType.LONG)],
        )
    )
    defn.connect("CallDouble", "AddOne", "Done = 1")
    defn.map_data(PROCESS_INPUT, "CallDouble", [("N", "In")])
    defn.map_data("CallDouble", "AddOne", [("Out", "Base")])
    defn.map_data("AddOne", PROCESS_OUTPUT, [("Final", "Result")])
    node.engine.register_definition(defn)


def make_requester(
    bus: MessageBus,
    name: str = "front",
    worker: str = "worker",
    observability=None,
    remote_kwargs: dict | None = None,
    **node_kwargs,
) -> WorkflowNode:
    node = WorkflowNode(
        name,
        bus,
        observability=observability,
        **node_kwargs,
    )
    configure_requester(node, worker, remote_kwargs=remote_kwargs)
    return node
