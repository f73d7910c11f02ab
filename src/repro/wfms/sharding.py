"""Sharded multi-engine execution: partitioned navigators with
deterministic cross-shard messaging.

The paper's engine model — and ours through PR 6 — is one navigation
loop.  :class:`ShardedEngine` splits the live instance population
across N engine **shards**: each shard is a full
:class:`~repro.wfms.distributed.WorkflowNode` (its own Navigator,
WorklistManager, AuditTrail, DurableStore/Journal, logical clock and
metrics labels), and a *root* instance lives on the shard selected by
a stable hash of its instance id (:func:`shard_of`).  Subtrees stay
with their root: blocks and subprocesses of an instance execute on the
owning shard, so the partition unit is the whole instance tree —
exactly the projection-stability contract of the distributed-execution
model in PAPERS.md (each shard's local view is the projection of the
global process onto the instances it owns).

**Sharding is a routing rule.**  The shards are plain ``WorkflowNode``
objects built with one ``route`` callable.  A definition that needs
work on another shard uses an ordinary remote activity whose target
node is the :data:`ANY_SHARD` sentinel; the requesting node resolves it
through ``route`` to ``shard_of(request_id)`` once per request, so its
breaker, send and timeout events all name the real shard, and the same
request id always lands on the same shard — after a requester
crash/replay the re-sent request is deduplicated by the server.
Nack/redelivery, dead-lettering, per-queue stats and span-context
headers are all unchanged; sharding multiplies queues, not mechanisms.

**Determinism.**  :meth:`ShardedEngine.run` is
:func:`~repro.wfms.distributed.run_cluster` with
``rng=random.Random(seed)``, one shuffled shard visit order per round.
With a shared :class:`~repro.resilience.faults.FaultInjector`, fault
decisions are consumed in that deterministic order, so chaos traces
are bit-identical across runs — the same contract the single-engine
chaos suite enforces.

**Per-shard recovery.**  ``crash_shard(i)`` tears one shard's volatile
state (in-flight bus messages recover for redelivery);
``recover_shard(i)`` rebuilds only that shard's engine from *its own*
journal/store directory and replays only its instances.  Healthy
shards keep their engines — one shard's torn state never forces a
whole-cluster replay.  Shared services (e.g. the ``tx_scopes`` scope
manager) are re-installed *after* replay and only the crashed shard's
open scopes are rolled back, so a healthy shard's scopes survive a
neighbour's recovery.
"""

from __future__ import annotations

import os
import random
import zlib
from typing import Any, Callable

from repro.errors import NavigationError, WorkflowError
from repro.wfms.distributed import (
    WorkflowNode,
    _inbox,
    _reply_queue,
    pump_round,
    run_cluster,
)
from repro.wfms.messaging import MessageBus
from repro.wfms.model import ProcessDefinition
from repro.wfms.organization import Organization

#: Remote-activity target meaning "whichever shard owns the request id".
ANY_SHARD = "any-shard"


def shard_of(key: str, num_shards: int) -> int:
    """Stable partition rule: crc32 of the key, modulo the shard count.

    Unsalted and version-independent on purpose — the same key maps to
    the same shard across processes, restarts and recoveries, which is
    what makes re-sent (deduplicated) cross-shard requests land on the
    shard that already served them.
    """
    if num_shards < 1:
        raise WorkflowError("num_shards must be >= 1")
    return zlib.crc32(key.encode("utf-8")) % num_shards


class ShardedEngine:
    """N in-process engine shards behind one Engine-like facade.

    ``journal_dir``/``store_dir`` select per-shard durability: each
    shard journals to its own file (``<journal_dir>/<shard>.jsonl``) or
    owns its own :class:`~repro.store.DurableStore` directory
    (``<store_dir>/<shard>/`` — segments, checkpoints and archive are
    all per shard), so one shard's recovery replays only its slice of
    history.  ``store_options`` are keyword arguments forwarded to each
    per-shard DurableStore.

    Registration goes through :meth:`configure` (or the
    ``register_program``/``register_definition``/``serve``
    conveniences): the callback runs on every shard now and is
    *recorded*, so :meth:`recover_shard` can replay the same
    configuration into a rebuilt engine.

    ``seed`` drives the deterministic scheduler;
    ``fault_injector`` is shared by every shard and the bus.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        journal_dir: str | os.PathLike[str] | None = None,
        store_dir: str | os.PathLike[str] | None = None,
        store_options: dict[str, Any] | None = None,
        organization: Organization | None = None,
        observability=None,
        fault_injector=None,
        bus: MessageBus | None = None,
        seed: int = 0,
        steps_per_slice: int = 25,
        max_deliveries: int = 5,
        request_timeout: float | None = None,
        request_retries: int = 0,
        poll_interval: float = 1.0,
    ):
        if num_shards < 1:
            raise WorkflowError("num_shards must be >= 1")
        if steps_per_slice < 1:
            raise WorkflowError("steps_per_slice must be >= 1")
        if journal_dir is not None and store_dir is not None:
            raise WorkflowError(
                "journal_dir and store_dir are mutually exclusive"
            )
        self.num_shards = num_shards
        self.seed = seed
        self.bus = bus if bus is not None else MessageBus()
        if fault_injector is not None:
            self.bus.install_injector(fault_injector)
        self._steps_per_slice = steps_per_slice
        self._rng = random.Random(seed)
        self._sequence = 0
        self._configurers: list[Callable[[WorkflowNode], None]] = []
        self._services: dict[str, Any] = {}
        self.shards: list[WorkflowNode] = []
        for index in range(num_shards):
            name = "shard-%d" % index
            journal_path = None
            store_factory = None
            if journal_dir is not None:
                os.makedirs(os.fspath(journal_dir), exist_ok=True)
                journal_path = os.path.join(
                    os.fspath(journal_dir), "%s.jsonl" % name
                )
            elif store_dir is not None:
                shard_dir = os.path.join(os.fspath(store_dir), name)
                options = dict(store_options or {})

                def store_factory(path=shard_dir, options=options):
                    from repro.store.durable import DurableStore

                    return DurableStore(path, **options)

            self.shards.append(
                WorkflowNode(
                    name,
                    self.bus,
                    journal_path=journal_path,
                    store_factory=store_factory,
                    organization=organization,
                    observability=observability,
                    max_deliveries=max_deliveries,
                    request_timeout=request_timeout,
                    request_retries=request_retries,
                    poll_interval=poll_interval,
                    fault_injector=fault_injector,
                    route=self._route,
                )
            )

    # -- partitioning ------------------------------------------------------

    def shard_name_for_key(self, key: str) -> str:
        return "shard-%d" % shard_of(key, self.num_shards)

    def _route(self, target: str, request_id: str) -> str:
        """Every shard's ``route``: :data:`ANY_SHARD` names the shard
        owning the request id; any other target stands as named."""
        if target == ANY_SHARD:
            return self.shard_name_for_key(request_id)
        return target

    def shard_index_for_root(self, root_id: str) -> int:
        """The shard owning a *root* instance id.  Served cross-shard
        instances (``req/<request_id>``) hash by the request id — the
        same rule :meth:`_route` used to route the request."""
        if root_id.startswith("req/"):
            return shard_of(root_id[len("req/"):], self.num_shards)
        return shard_of(root_id, self.num_shards)

    # -- configuration -----------------------------------------------------

    def configure(self, fn: Callable[[WorkflowNode], None]) -> None:
        """Apply ``fn(node)`` to every shard now, and record it so a
        rebuilt shard replays the same registrations before recovery."""
        self._configurers.append(fn)
        for node in self.shards:
            fn(node)

    def register_program(self, name: str, program, description: str = "",
                         **kwargs) -> None:
        self.configure(
            lambda node: node.engine.register_program(
                name, program, description, **kwargs
            )
        )

    def register_definition(self, definition: ProcessDefinition) -> None:
        def register(node):
            if definition.name not in node.engine.definitions():
                node.engine.register_definition(definition)

        self.configure(register)

    def serve(self, definition: ProcessDefinition) -> None:
        """Make ``definition`` invokable cross-shard (via remote
        activities targeting :data:`ANY_SHARD` or a shard name)."""
        self.configure(lambda node: node.serve(definition))

    def install_service(self, name: str, service: Any) -> None:
        """Share one engine service (e.g. a ``tx_scopes``
        ScopeManager) across every shard.  Re-installed *after* a
        shard's replay so global service recovery never runs inside a
        single-shard rebuild."""
        self._services[name] = service
        for node in self.shards:
            node.engine.services[name] = service

    # -- running -----------------------------------------------------------

    def start_process(
        self,
        name: str,
        input_values: dict[str, Any] | None = None,
        *,
        starter: str = "",
    ) -> str:
        """Start a root instance on its hash-selected shard; returns
        the cluster-unique instance id."""
        self._sequence += 1
        instance_id = "pi-%06d" % self._sequence
        node = self.shards[shard_of(instance_id, self.num_shards)]
        node.engine.start_process(
            name, input_values, starter=starter, instance_id=instance_id
        )
        return instance_id

    def pump_round(self) -> bool:
        """One seeded scheduler round; see
        :func:`~repro.wfms.distributed.pump_round`."""
        return pump_round(
            self.shards, steps_per_round=self._steps_per_slice, rng=self._rng
        )

    def run(self, max_rounds: int = 10_000) -> int:
        """Pump all shards to quiescence (:func:`run_cluster` with the
        seeded visit order); returns rounds taken."""
        if all(node.engine.crashed for node in self.shards):
            raise WorkflowError(
                "every shard is crashed; recover before running"
            )
        return run_cluster(
            self.shards,
            rng=self._rng,
            steps_per_round=self._steps_per_slice,
            max_rounds=max_rounds,
        )

    def advance_clock(self, delta: float) -> None:
        for node in self.shards:
            if not node.engine.crashed:
                node.engine.advance_clock(delta)

    @property
    def clocks(self) -> list[float]:
        return [node.engine.navigator.clock for node in self.shards]

    # -- queries -----------------------------------------------------------

    def _owner(self, instance_id: str):
        """The live engine holding ``instance_id``.  The hash-primary
        shard is probed first; descendants of served instances embed
        ``/`` both as tree separator and inside the request id, so a
        miss falls back to scanning the (few) remaining shards."""
        guesses: list[int] = []
        if instance_id.startswith("req/"):
            parts = instance_id.split("/")
            if len(parts) >= 4:
                guesses.append(
                    shard_of("/".join(parts[1:4]), self.num_shards)
                )
        else:
            guesses.append(
                shard_of(instance_id.split("/", 1)[0], self.num_shards)
            )
        order = guesses + [
            index for index in range(self.num_shards) if index not in guesses
        ]
        for index in order:
            engine = self.shards[index].engine
            if engine.crashed:
                continue
            try:
                engine.instance_state(instance_id)
                return engine
            except NavigationError:
                continue
        raise NavigationError(
            "unknown process instance %r (searched %d shards)"
            % (instance_id, self.num_shards)
        )

    def instance_state(self, instance_id: str) -> str:
        return self._owner(instance_id).instance_state(instance_id)

    def output(self, instance_id: str) -> dict[str, Any]:
        return self._owner(instance_id).output(instance_id)

    def result(self, instance_id: str):
        return self._owner(instance_id).result(instance_id)

    def monitor(self, instance_id: str) -> dict[str, Any]:
        return self._owner(instance_id).monitor(instance_id)

    def account(self, instance_id: str, **kwargs) -> dict[str, Any]:
        return self._owner(instance_id).account(instance_id, **kwargs)

    def process_list(self, **kwargs) -> list[dict[str, Any]]:
        """Merged summary rows across live shards (per-shard walks are
        index-backed, so a filter stays O(matching) cluster-wide)."""
        rows: list[dict[str, Any]] = []
        for node in self.shards:
            if not node.engine.crashed:
                rows.extend(node.engine.process_list(**kwargs))
        rows.sort(key=lambda r: (r["parent"], r["instance"]))
        return rows

    def snapshot(self) -> dict[str, Any]:
        """Monitoring view: one row per shard (live instances, queue
        depths, scheduler depths, clock, store/checkpoint status) plus
        bus stats — rendered by ``repro.tools.monitor``'s SHARDS view."""
        shard_rows = []
        for index, node in enumerate(self.shards):
            engine = node.engine
            navigator = engine.navigator
            shard_rows.append(
                {
                    "name": node.name,
                    "index": index,
                    "crashed": engine.crashed,
                    "clock": navigator.clock,
                    "live_instances": navigator.live_instance_count(),
                    "queues": {
                        "inbox": self.bus.depth(_inbox(node.name)),
                        "replies": self.bus.depth(_reply_queue(node.name)),
                        "dlq": (
                            self.bus.depth("dlq:%s" % _inbox(node.name))
                            + self.bus.depth("dlq:%s" % _reply_queue(node.name))
                        ),
                    },
                    "scheduler": navigator.queue_depths(),
                    "store": engine.store_status(),
                }
            )
        return {
            "num_shards": self.num_shards,
            "seed": self.seed,
            "shards": shard_rows,
            "bus": self.bus.stats(),
        }

    # -- crash / recovery --------------------------------------------------

    def crash_shard(self, index: int) -> None:
        """Tear one shard's volatile state; its journal/store and the
        bus survive (in-flight messages recover for redelivery)."""
        self.shards[index].crash()

    def crash(self) -> None:
        for index in range(self.num_shards):
            if not self.shards[index].engine.crashed:
                self.crash_shard(index)

    def crashed_shards(self) -> list[int]:
        return [
            index
            for index in range(self.num_shards)
            if self.shards[index].engine.crashed
        ]

    def recover_shard(self, index: int) -> None:
        """Rebuild one crashed shard from its own journal/store.

        Healthy shards are untouched — no whole-cluster replay.  The
        recorded configuration replays first, then the journal; shared
        services are re-installed *after* replay (so
        ``Engine.recover``'s global service recovery does not run), and
        only this shard's open transaction scopes are rolled back.
        """
        node = self.shards[index]
        if not node.engine.crashed:
            return

        def replay_configuration(n):
            for fn in self._configurers:
                fn(n)

        node.rebuild(replay_configuration)
        for name, service in self._services.items():
            node.engine.services[name] = service
        scopes = self._services.get("tx_scopes")
        if scopes is not None:
            # Targeted teardown: scopes opened by this shard's roots
            # were torn by the crash; neighbours' scopes stay open.
            for root_id in [
                scope.root_id for scope in scopes.open_scopes()
            ]:
                if self.shard_index_for_root(root_id) == index:
                    scopes.rollback_open_for(
                        root_id, "shard %s recovered" % node.name
                    )

    def recover(self) -> list[int]:
        """Recover every crashed shard; returns their indexes."""
        crashed = self.crashed_shards()
        for index in crashed:
            self.recover_shard(index)
        return crashed

    def close(self) -> None:
        for node in self.shards:
            if not node.engine.crashed:
                node.engine.close()
