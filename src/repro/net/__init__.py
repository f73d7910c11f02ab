"""Real socket transport for the message bus (``repro.net``).

Through PR 7 every distributed topology — :class:`WorkflowNode`
clusters, :class:`ShardedEngine` — shared one in-memory
:class:`~repro.wfms.messaging.MessageBus` object.  This package puts a
real network between the nodes without changing a line of node code:

* :mod:`repro.net.frames` — the wire format: length-prefixed JSON
  frames whose envelopes carry the existing message bodies, headers
  (span context, delivery ids) and stat semantics byte-for-byte;
* :mod:`repro.net.server` — :class:`BusServer`, an asyncio broker
  owning the **authoritative** MessageBus.  Because the queues (and
  any installed :class:`~repro.resilience.faults.FaultInjector`) live
  behind the transport, the chaos suite's drop/duplicate/delay rules
  apply to socket traffic unchanged;
* :mod:`repro.net.client` — :class:`SocketBus`, a client proxy
  implementing the MessageBus interface over a TCP connection, with
  reconnect-with-backoff, typed admission errors, op-level idempotency
  and broker-restart session resume;
* :mod:`repro.net.buslog` — :class:`BusLog`, the write-ahead log +
  checkpoint store that makes a broker durable: every state-mutating
  bus op is journaled (by its *effects*, so replay never re-rolls the
  chaos dice) and a restarted ``BusServer(durable_dir=...)`` rebuilds
  queues, DLQ, stats and its idempotency table from checkpoint +
  log suffix.

Production concerns are first-class at the broker: bounded per-queue
depth (overflow nacks the send and feeds the existing dead-letter
path), breaker-driven load shedding (typed rejection at admission,
never a silent drop), per-connection accounting for the monitor's NET
view, and DLQ inspect/drain operations for operators.

See DESIGN.md §14 for the framing format and the
chaos-behind-the-injector contract, §11 for the bus log's journal and
checkpoint format, and §15 for the recovery/determinism contract
across broker restarts.
"""

from repro.net.buslog import BusLog, replay_into
from repro.net.client import SocketBus
from repro.net.frames import (
    FrameDecoder,
    FrameError,
    MAX_FRAME_BYTES,
    decode_envelope,
    encode_envelope,
    encode_frame,
)
from repro.net.server import (
    BrokerProcess,
    BusServer,
    BusServerThread,
)

__all__ = [
    "BrokerProcess",
    "BusLog",
    "BusServer",
    "BusServerThread",
    "FrameDecoder",
    "FrameError",
    "MAX_FRAME_BYTES",
    "SocketBus",
    "decode_envelope",
    "encode_envelope",
    "encode_frame",
    "replay_into",
]
