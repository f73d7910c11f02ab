"""Shared builders for the durable-flow suite."""

from repro.core.scoped import install_scope_service
from repro.store import DurableStore
from repro.tx import ScopeManager
from repro.wfms import Engine


def flow_engine(db, store_dir=None, **engine_kwargs):
    """An Engine with the scope service installed (flows with
    ``@transaction`` steps need it), persisted in ``store_dir`` when
    given (no checkpoint policy: recovery replays the whole journal)."""
    store = DurableStore(store_dir) if store_dir is not None else None
    engine = Engine(store=store, **engine_kwargs)
    install_scope_service(engine, ScopeManager(db))
    return engine


def assert_exactly_once(calls):
    """Every recorded step-body invocation must be unique — re-running
    a journaled body is the bug this whole subsystem exists to
    prevent."""
    seen = {}
    for c in calls:
        key = repr(c)
        seen[key] = seen.get(key, 0) + 1
    dupes = {k: n for k, n in seen.items() if n > 1}
    assert not dupes, "step bodies re-executed: %r" % dupes

