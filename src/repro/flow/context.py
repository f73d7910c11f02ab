"""FlowContext: the per-invocation step journal and replay cursor.

Execution model (one ``Drive`` attempt = one call of the workflow
function from the top):

* Every ``@step`` / ``@transaction`` call inside the body takes the
  next ``function_id`` (a plain counter, exactly as in the DBOS
  ``WorkflowContext`` exemplar).  The step's durable key is
  ``(workflow_uuid, function_id)``.
* If the journal holds an entry for that id, the recorded result is
  returned (or the recorded :class:`~repro.errors.StepFailure`
  re-raised) **without invoking the body** — this is replay, both for
  the ordinary attempt loop and for crash-resume.
* The first call with no journal entry runs live: the body executes
  exactly once, its outcome is journaled, and the attempt owns it.
  Any *further* new call raises :class:`FlowSuspend`, which unwinds
  the workflow function so the engine can journal the attempt and
  reschedule — at most one step body runs per attempt, so a completed
  attempt record durably implies its step ran.
* A function return (or uncaught exception) ends the flow in the
  attempt that saw it.

Transactional steps run inside one flow-lifetime
:class:`~repro.tx.scope.TransactionScope` under a per-step savepoint.
Their write effects (absolute final value per key) are journaled with
the result; when the scope is lost — crash-resume rolled it back as
torn, or a timeout/deadlock aborted it mid-flow — the context begins
a fresh scope and re-applies the journaled effects in function-id
order instead of re-running bodies, preserving exactly-once body
execution.
"""

from __future__ import annotations

import contextvars
import json
import time
from typing import Any

from repro.core.scoped import SCOPE_SERVICE
from repro.errors import FlowError, StepFailure, TransactionAborted, ScopeError
from repro.flow.compile import ARGS, JOURNAL


class FlowSuspend(BaseException):
    """Internal control flow: ends an attempt after its live step.

    A ``BaseException`` so ordinary ``except Exception`` handlers in
    workflow code cannot swallow it; ``finally`` blocks still run.
    """


_CURRENT: contextvars.ContextVar["FlowContext | None"] = (
    contextvars.ContextVar("repro_flow_context", default=None)
)


def current_context() -> "FlowContext | None":
    """The FlowContext of the flow driving this call stack, if any."""
    return _CURRENT.get()


def canon(value: Any) -> str:
    """Canonical JSON: the only serialization flows use."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def encode_args(args: tuple, kwargs: dict) -> str:
    """The ``_ARGS`` payload of a flow start."""
    try:
        return canon({"a": list(args), "k": dict(kwargs)})
    except (TypeError, ValueError) as exc:
        raise FlowError(
            "flow arguments must be JSON-serializable: %s" % exc
        ) from exc


class RecordingScope:
    """Scope proxy handed to ``@transaction`` bodies.

    Forwards to the real scope and records each written key's *final*
    value, so the effect set journaled with the step is absolute (and
    therefore idempotent to re-apply on a fresh scope).
    """

    __slots__ = ("_scope", "effects")

    def __init__(self, scope):
        self._scope = scope
        self.effects: dict[str, Any] = {}

    def read(self, key: str, default: Any = None) -> Any:
        return self._scope.read(key, default)

    def write(self, key: str, value: Any) -> None:
        self._scope.write(key, value)
        self.effects[key] = value

    def increment(self, key: str, delta: float | int) -> Any:
        value = self._scope.increment(key, delta)
        self.effects[key] = value
        return value

    @property
    def handle(self) -> str:
        return self._scope.handle


class FlowContext:
    """Passed to the workflow function as its first argument."""

    def __init__(self, runtime, flow, invocation, replay_mode: str):
        self.runtime = runtime
        self.flow = flow
        self.uuid: str = invocation.instance_id
        self.attempt: int = invocation.attempt
        self._services = invocation.services
        self._replay_mode = replay_mode  # "loop" | "resume"
        raw_args = invocation.input.get(ARGS) or ""
        call = json.loads(raw_args) if raw_args else {"a": [], "k": {}}
        self.args: tuple = tuple(call.get("a", []))
        self.kwargs: dict = dict(call.get("k", {}))
        raw = invocation.input.get(JOURNAL) or ""
        state = json.loads(raw) if raw else {"s": {}, "scope": ""}
        #: function_id (as str) -> journal entry.
        self._steps: dict[str, dict] = state.get("s", {})
        self._scope_handle: str = state.get("scope", "")
        self._fid = 0
        self._live_done = False
        self._scope = None
        #: Journaled ok-transaction effects, [(fid, {key: final})].
        self._txn_effects: list[tuple[int, dict]] = []
        for key in sorted(self._steps, key=int):
            entry = self._steps[key]
            if entry.get("k") == "txn" and entry.get("s") == "ok":
                self._txn_effects.append((int(key), entry.get("w", {})))
        #: Highest fid whose effects live in the currently open scope.
        self._synced_fid = -1
        manager = self._services.get(SCOPE_SERVICE)
        if self._scope_handle and manager is not None:
            scope = manager.get(self._scope_handle)
            if scope is not None:
                # The flow's scope survived since the last attempt:
                # every journaled effect is already in it.
                self._scope = scope
                if self._txn_effects:
                    self._synced_fid = self._txn_effects[-1][0]

    # -- step dispatch ---------------------------------------------------

    def call(self, spec, args: tuple, kwargs: dict) -> Any:
        self._fid += 1
        fid = self._fid
        entry = self._steps.get(str(fid))
        if entry is not None:
            return self._replay(fid, spec, entry)
        if self._live_done:
            # This attempt already ran its one live step; journal it
            # before any further side effect.
            raise FlowSuspend()
        if fid > self.flow.max_steps:
            raise FlowError(
                "flow %r exceeded max_steps=%d"
                % (self.flow.name, self.flow.max_steps)
            )
        if spec.transactional:
            return self._execute_transaction(fid, spec, args, kwargs)
        return self._execute_step(fid, spec, args, kwargs)

    # -- replay ----------------------------------------------------------

    def _replay(self, fid: int, spec, entry: dict) -> Any:
        if entry.get("n") != spec.name:
            raise FlowError(
                "flow %r is not deterministic: function_id %d was "
                "journaled as step %r but replay called %r"
                % (self.flow.name, fid, entry.get("n"), spec.name)
            )
        if entry.get("k") == "txn" and entry.get("s") == "ok":
            # Make sure the journaled effects exist in a live scope
            # (re-establishes and re-applies after a scope loss).
            self._ensure_scope()
        self.runtime.on_step_replayed(self, spec, fid, self._replay_mode)
        if entry.get("s") == "ok":
            return entry.get("v")
        raise StepFailure(
            spec.name, entry.get("t", "Exception"), entry.get("m", "")
        )

    # -- live execution --------------------------------------------------

    def _execute_step(self, fid: int, spec, args, kwargs) -> Any:
        started = time.perf_counter()
        try:
            value = spec.fn(*args, **kwargs)
            value = self._normalize(spec, value)
        except FlowSuspend:
            raise
        except Exception as exc:
            self._record_failure(fid, spec, "step", exc)
            raise StepFailure(spec.name, type(exc).__name__, str(exc))
        self._steps[str(fid)] = {
            "k": "step", "n": spec.name, "s": "ok", "v": value,
        }
        self._live_done = True
        self.runtime.on_step_executed(
            self, spec, fid, time.perf_counter() - started, ok=True
        )
        return value

    def _execute_transaction(self, fid: int, spec, args, kwargs) -> Any:
        started = time.perf_counter()
        scope = self._ensure_scope()
        savepoint = "flow-%d" % fid
        try:
            scope.savepoint(savepoint)
            proxy = RecordingScope(scope)
            value = spec.fn(proxy, *args, **kwargs)
            value = self._normalize(spec, value)
        except FlowSuspend:
            raise
        except Exception as exc:
            # Step-local failure: undo only this step's writes.  When
            # the *whole scope* died instead (timeout, deadlock, a
            # chaos abort — ``TransactionAborted`` or any exception
            # after which the scope is no longer open), the savepoint
            # rollback itself raises: every prior effect was rolled
            # back with the scope, and the journal re-applies them on
            # the next transactional use.
            try:
                scope.rollback_to_savepoint(savepoint)
            except (ScopeError, TransactionAborted):
                self._scope = None
                self._synced_fid = -1
            self._record_failure(fid, spec, "txn", exc)
            raise StepFailure(spec.name, type(exc).__name__, str(exc))
        self._steps[str(fid)] = {
            "k": "txn", "n": spec.name, "s": "ok", "v": value,
            "w": proxy.effects,
        }
        self._txn_effects.append((fid, proxy.effects))
        self._synced_fid = fid
        self._live_done = True
        self.runtime.on_step_executed(
            self, spec, fid, time.perf_counter() - started, ok=True
        )
        return value

    def _record_failure(self, fid: int, spec, kind: str, exc) -> None:
        self._steps[str(fid)] = {
            "k": kind, "n": spec.name, "s": "err",
            "t": type(exc).__name__, "m": str(exc),
        }
        self._live_done = True
        self.runtime.on_step_executed(self, spec, fid, 0.0, ok=False)

    def _normalize(self, spec, value: Any) -> Any:
        """JSON round-trip so the live attempt sees exactly what every
        replay will see (tuples become lists *now*, not later)."""
        if value is None:
            return None
        try:
            return json.loads(canon(value))
        except (TypeError, ValueError) as exc:
            raise FlowError(
                "step %r returned a non-JSON-serializable value: %s"
                % (spec.name, exc)
            ) from exc

    # -- the shared transaction scope ------------------------------------

    def _ensure_scope(self):
        """The flow's open scope, beginning (and re-applying journaled
        effects onto) a fresh one when none is live."""
        manager = self._services.get(SCOPE_SERVICE)
        if manager is None:
            raise FlowError(
                "flow %r uses @transaction steps but the engine has no "
                "%r service (install a ScopeManager)"
                % (self.flow.name, SCOPE_SERVICE)
            )
        if self._scope is not None and manager.get(self._scope.handle):
            return self._scope
        reestablish = bool(self._scope_handle or self._txn_effects)
        scope = manager.begin(
            self.uuid,
            isolation=self.flow.isolation,
            timeout=self.flow.scope_timeout,
        )
        for fid, effects in self._txn_effects:
            for key in sorted(effects):
                scope.write(key, effects[key])
        if self._txn_effects:
            self._synced_fid = self._txn_effects[-1][0]
        self._scope = scope
        self._scope_handle = scope.handle
        if reestablish:
            self.runtime.on_scope_reestablished(self)
        return scope

    def finish_scope(self, *, commit: bool) -> None:
        """Commit or roll back the flow's scope at flow end (no-op when
        no transactional step ever ran, or the scope already died)."""
        scope = self._scope
        if scope is None:
            return
        manager = self._services.get(SCOPE_SERVICE)
        if manager is None or manager.get(scope.handle) is None:
            return
        if commit:
            scope.commit()
        else:
            scope.rollback("flow %s failed" % self.uuid)

    # -- state for the driver --------------------------------------------

    def journal_text(self) -> str:
        return canon({"s": self._steps, "scope": self._scope_handle})
