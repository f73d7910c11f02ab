"""Builders for sharded-execution workloads.

Two topologies over a :class:`~repro.wfms.sharding.ShardedEngine`:

* :func:`configure_sharded_math` — the distributed demo's Front/Double
  pair with the worker target replaced by :data:`ANY_SHARD`: every
  shard serves ``Double``, every shard can own a ``Front`` root, and
  the call crosses shards (or loops back) by the partition rule.
  ``Front(N)`` yields ``Final = 2*N + 1``.

* :func:`configure_sharded_saga` — a cross-shard saga against a shared
  :class:`~repro.tx.SimDatabase`: a local step (``local=1``), a remote
  step served by whichever shard the request id hashes to
  (``remote=1``), and a local finish (``final=1``); the failure edges
  route through a remote compensation (``remote=0``) and a local one
  (``local=0``), both OR-joins, in reverse order.  The saga guarantee
  across shard boundaries is then checkable from the database alone:
  ``final=1`` implies ``local=1 and remote=1``; anything else implies
  ``local=0`` and ``remote != 1``.

Shared by ``tests/wfms/test_sharding.py`` and the sharded chaos suite
(``tests/resilience/test_sharding_chaos.py``).
"""

from __future__ import annotations

from typing import Any

from repro.resilience.policies import RetryPolicy
from repro.tx import SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms import (
    Activity,
    DataType,
    ProcessDefinition,
    StartCondition,
    VariableDecl,
)
from repro.wfms.model import PROCESS_INPUT, PROCESS_OUTPUT
from repro.wfms.sharding import ANY_SHARD, ShardedEngine


def configure_sharded_math(
    sharded: ShardedEngine, remote_kwargs: dict[str, Any] | None = None
) -> None:
    """Register Front/Double on every shard (Front's remote call
    targets :data:`ANY_SHARD`).  ``remote_kwargs`` forwards resilience
    knobs (``timeout``, ``retries``, ``poll_interval``)."""

    def configure(node) -> None:
        def double(ctx):
            ctx.set_output("Out", ctx.get_input("In") * 2)
            return 0

        node.engine.register_program("double", double, replace=True)
        served = ProcessDefinition(
            "Double",
            input_spec=[VariableDecl("In", DataType.LONG)],
            output_spec=[VariableDecl("Out", DataType.LONG)],
        )
        served.add_activity(
            Activity(
                "D",
                program="double",
                input_spec=[VariableDecl("In", DataType.LONG)],
                output_spec=[VariableDecl("Out", DataType.LONG)],
            )
        )
        served.map_data(PROCESS_INPUT, "D", [("In", "In")])
        served.map_data("D", PROCESS_OUTPUT, [("Out", "Out")])
        node.serve(served)

        remote = node.remote_activity(
            "CallDouble",
            process="Double",
            node=ANY_SHARD,
            input_spec=[VariableDecl("In", DataType.LONG)],
            output_spec=[VariableDecl("Out", DataType.LONG)],
            **(remote_kwargs or {}),
        )

        def add_one(ctx):
            ctx.set_output("Final", ctx.get_input("Base") + 1)
            return 0

        node.engine.register_program("add_one", add_one, replace=True)
        front = ProcessDefinition(
            "Front",
            input_spec=[VariableDecl("N", DataType.LONG)],
            output_spec=[VariableDecl("Final", DataType.LONG)],
        )
        front.add_activity(remote)
        front.add_activity(
            Activity(
                "AddOne",
                program="add_one",
                input_spec=[VariableDecl("Base", DataType.LONG)],
                output_spec=[VariableDecl("Final", DataType.LONG)],
            )
        )
        front.connect("CallDouble", "AddOne")
        front.map_data(PROCESS_INPUT, "CallDouble", [("N", "In")])
        front.map_data("CallDouble", "AddOne", [("Out", "Base")])
        front.map_data("AddOne", PROCESS_OUTPUT, [("Final", "Final")])
        if "Front" not in node.engine.definitions():
            node.engine.register_definition(front)

    sharded.configure(configure)


#: Retry policy for the saga's subtransaction programs.  max_retries
#: must exceed the chaos rules' per-rule ``max_fires`` so injected
#: program faults are always absorbed by retries, never escalated —
#: compensations in particular must eventually run.
_SAGA_RETRY = dict(max_retries=6, base_delay=0.5, escalate_rc=1)


def configure_sharded_saga(
    sharded: ShardedEngine,
    db: SimDatabase,
    *,
    work_kwargs: dict[str, Any] | None = None,
    undo_kwargs: dict[str, Any] | None = None,
) -> None:
    """Register the cross-shard saga (``ShardSaga``) on every shard.

    ``work_kwargs`` tunes the forward remote call (tight budgets make
    escalation-driven aborts reachable under chaos); ``undo_kwargs``
    tunes the compensation call (generous budgets so the undo always
    lands — a saga may abort, but its compensation must not).
    """
    work_options = dict(
        timeout=5.0, retries=1, escalate_rc=1, **(work_kwargs or {})
    )
    undo_options = dict(
        timeout=30.0, retries=8, escalate_rc=1, **(undo_kwargs or {})
    )

    def configure(node) -> None:
        engine = node.engine

        def txn_program(name: str, key: str, value, ok_member: bool = False):
            def program(ctx):
                outcome = Subtransaction(
                    name, db, write_value(key, value)
                ).execute()
                if ok_member:
                    ctx.set_output("Ok", 1 if outcome.committed else 0)
                    return 0
                return 0 if outcome.committed else 1

            return program

        # Served remote processes: forward work and its compensation.
        engine.register_program(
            "txn_work", txn_program("work", "remote", 1, ok_member=True),
            replace=True,
        )
        work = ProcessDefinition(
            "ShardWork", output_spec=[VariableDecl("Ok", DataType.LONG)]
        )
        work.add_activity(
            Activity(
                "W",
                program="txn_work",
                output_spec=[VariableDecl("Ok", DataType.LONG)],
            )
        )
        work.map_data("W", PROCESS_OUTPUT, [("Ok", "Ok")])
        node.serve(work)

        engine.register_program(
            "txn_undo", txn_program("undo", "remote", 0), replace=True
        )
        undo = ProcessDefinition("ShardUndo")
        undo.add_activity(Activity("U", program="txn_undo"))
        node.serve(undo)

        # The requesting saga: S1 -> CallWork -> S3, with failure
        # edges into CallUndo -> C1 (both OR-joins).
        engine.register_program(
            "txn_s1", txn_program("s1", "local", 1), replace=True
        )
        engine.register_program(
            "txn_s3", txn_program("s3", "final", 1), replace=True
        )
        engine.register_program(
            "txn_c1", txn_program("c1", "local", 0), replace=True
        )
        for program in ("txn_work", "txn_undo", "txn_s1", "txn_s3", "txn_c1"):
            engine.set_retry(program, RetryPolicy(**_SAGA_RETRY))

        call_work = node.remote_activity(
            "CallWork",
            process="ShardWork",
            node=ANY_SHARD,
            output_spec=[VariableDecl("Ok", DataType.LONG)],
            **work_options,
        )
        call_undo = node.remote_activity(
            "CallUndo", process="ShardUndo", node=ANY_SHARD, **undo_options
        )
        call_undo.start_condition = StartCondition.ANY

        saga = ProcessDefinition("ShardSaga")
        saga.add_activity(Activity("S1", program="txn_s1"))
        saga.add_activity(call_work)
        saga.add_activity(Activity("S3", program="txn_s3"))
        saga.add_activity(call_undo)
        saga.add_activity(
            Activity(
                "C1", program="txn_c1", start_condition=StartCondition.ANY
            )
        )
        saga.connect("S1", "CallWork", "RC = 0")
        saga.connect("S1", "C1", "RC <> 0")
        saga.connect("CallWork", "S3", "RC = 0 AND Ok = 1")
        saga.connect("CallWork", "CallUndo", "RC <> 0 OR Ok = 0")
        saga.connect("S3", "CallUndo", "RC <> 0")
        saga.connect("CallUndo", "C1")
        if "ShardSaga" not in engine.definitions():
            engine.register_definition(saga)

    sharded.configure(configure)


def saga_outcome(db: SimDatabase) -> tuple[str, Any, Any, Any]:
    """Classify a finished ShardSaga run from the shared database:
    ``("committed" | "aborted", local, remote, final)``."""
    local = db.get("local")
    remote = db.get("remote")
    final = db.get("final")
    verdict = "committed" if final == 1 else "aborted"
    return (verdict, local, remote, final)
