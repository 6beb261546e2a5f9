"""Layer recorder: spans taken from outside the program.

The traced run replaces each layer's public entry point (a module
attribute or a class method) with a wrapper that times the call and
keeps a per-thread span stack, so every span knows its parent and a
layer's *self* time is its span minus the part its children cover.  No
file under ``src/`` knows about it.  A name in :data:`TARGETS` that no
longer resolves raises :class:`LayerMissing`: a refactor cannot silently
drop a layer from the ledger.

Totals (self seconds and calls per span name) cover every traced
statement.  Raw spans are kept for the Chrome trace only while the span
budget lasts, decided per statement so a kept span's parent is kept.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, module, dotted attribute path).  The span name's prefix
#: is the ``repro`` layer the time is charged to.
TARGETS = (
    ("service.execute", "repro.service.session", "Session.execute"),
    ("sql.parse", "repro.optimizer", "parse"),
    ("sql.translate", "repro.sql.translator", "Translator.translate"),
    ("xforms.normalize", "repro.optimizer", "preprocess"),
    ("memo.insert", "repro.memo.memo", "Memo.insert"),
    ("search.optimize", "repro.search.engine", "SearchEngine.optimize"),
    ("search.extract", "repro.search.engine", "SearchEngine.extract"),
    ("stats.derive", "repro.stats.derivation", "StatsDeriver.derive"),
    ("cost.local_cost", "repro.cost.model", "CostModel.local_cost"),
    ("cost.floor", "repro.cost.model", "CostModel.local_cost_floor"),
    # deep_sizeof is bound by name in both modules that call it.
    ("gpos.deep_sizeof", "repro.optimizer", "deep_sizeof"),
    ("gpos.deep_sizeof", "repro.search.engine", "deep_sizeof"),
    ("plancache.fingerprint", "repro.optimizer", "fingerprint"),
    ("plancache.lookup", "repro.plancache", "PlanCache.lookup"),
    ("plancache.store", "repro.plancache", "PlanCache.store"),
    ("engine.execute", "repro.engine.executor", "Executor.execute"),
    ("engine.segment", "repro.engine.fused", "fused_chains"),
    ("engine.fused_chain", "repro.engine.fused", "run_chain"),
    ("fleet.execute", "repro.fleet.orchestrator", "Fleet.execute"),
)

#: Root span the harness opens around each timed statement.
STATEMENT = "statement"


class LayerMissing(LookupError):
    """A wrapped name no longer exists in the program."""


def _resolve(module_name: str, path: str):
    """``(owner, attribute name)`` of a dotted path to a plain function."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LayerMissing(f"{module_name}: {exc}") from exc
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise LayerMissing(f"{module_name}.{path}: no {part!r}")
        owner = getattr(owner, part)
    if not inspect.isfunction(vars(owner).get(attr)):
        raise LayerMissing(f"{module_name}.{path} is not a function defined on {owner!r}")
    return owner, attr


def _rule_apply_owners() -> list[type]:
    """The classes that define ``apply`` for every registered rule."""
    from repro.xforms.registry import all_rules
    from repro.xforms.rule import Rule

    owners = []
    for rule in all_rules():
        owner = next(k for k in type(rule).__mro__ if "apply" in vars(k))
        if owner is Rule:
            raise LayerMissing(f"rule {rule.name} does not define apply")
        if owner not in owners:
            owners.append(owner)
    return owners


class _ThreadState:
    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.stmt = -1
        self.keep = False


class LayerRecorder:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        #: (span id, parent id or None, name, start, end, statement, thread)
        self.spans: list[tuple] = []
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._originals: list[tuple] = []

    # -- wrapping ------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def _wrapper(self, name: str, fn):
        clock = time.perf_counter
        get_state = self._state
        next_id = self._ids.__next__
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            span_id = next_id() if state.keep else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                state.self_s[name] += elapsed - frame[0]
                state.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span_id:
                    parent = stack[-1][1] if stack else None
                    spans.append((span_id, parent, name, start, end, state.stmt, state.tid))

        wrapper.__wrapped_by_ledger__ = True
        return wrapper

    def wrap(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        if getattr(original, "__wrapped_by_ledger__", False):
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original))

    def install(self) -> None:
        """Wrap every target; all-or-nothing."""
        try:
            for name, module_name, path in TARGETS:
                self.wrap(*_resolve(module_name, path), name)
            for owner in _rule_apply_owners():
                self.wrap(owner, "apply", "xforms.apply")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def report_from_fleet_workers(self) -> None:
        """Make forked fleet workers hand their layer totals back.

        Workers inherit the installed wrappers through ``fork`` but their
        spans stay in their own memory.  ``worker_main`` looks
        ``handle_request`` up at call time, so wrapping it here (before
        the fleet forks) lets each worker add its totals to its ``stats``
        response, which ``Fleet.worker_stats()`` returns whole.
        """
        owner, attr = _resolve("repro.fleet.worker", "handle_request")
        original = vars(owner)[attr]

        @functools.wraps(original)
        def handle_request(session, request):
            self.max_spans = 0  # this is the worker's copy: totals only
            response = self.statement(-1, original, session, request)
            if request["kind"] == "stats":
                self_s, calls = self.totals()
                response["ledger_layers"] = {"self_s": self_s, "calls": calls}
            return response

        self._originals.append((owner, attr, original))
        setattr(owner, attr, handle_request)

    # -- statements ----------------------------------------------------
    def statement(self, stmt_id: int, fn, *args):
        """Run ``fn(*args)`` under a root span; returns its result."""
        state = self._state()
        state.stmt = stmt_id
        state.keep = len(self.spans) < self.max_spans
        return self._root(fn, *args)

    @functools.cached_property
    def _root(self):
        return self._wrapper(STATEMENT, lambda fn, *args: fn(*args))

    # -- results -------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, calls) per span name, all threads summed."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for state in self._states:
            for name, value in state.self_s.items():
                self_s[name] += value
            for name, value in state.calls.items():
                calls[name] += value
        return dict(self_s), dict(calls)

    def chrome_trace(self) -> dict:
        """The kept spans in Chrome Trace Event Format, through the
        program's own exporter; each recording thread is its own row."""
        from repro import Span, chrome_trace

        return chrome_trace(
            Span(
                name,
                str(span_id),
                None if parent is None else str(parent),
                start - self.epoch,
                end - self.epoch,
                {"statement": stmt, "process": f"ledger-thread-{tid}"},
            )
            for span_id, parent, name, start, end, stmt, tid in self.spans
        )


def self_test() -> None:
    """Self times sum to the root span; unwrapping restores everything."""
    import types

    mod = types.ModuleType("ledger_selftest")

    def leaf():
        time.sleep(0.002)

    def mid():
        time.sleep(0.001)
        mod.leaf()
        mod.leaf()

    class Box:
        def top(self):
            time.sleep(0.001)
            mod.mid()

    mod.leaf, mod.mid = leaf, mid
    recorder = LayerRecorder()
    before = (vars(mod)["leaf"], vars(mod)["mid"], vars(Box)["top"])
    recorder.wrap(mod, "leaf", "t.leaf")
    recorder.wrap(mod, "mid", "t.mid")
    recorder.wrap(Box, "top", "t.top")
    start = time.perf_counter()
    recorder.statement(0, Box().top)
    outer = time.perf_counter() - start
    recorder.uninstall()
    after = (vars(mod)["leaf"], vars(mod)["mid"], vars(Box)["top"])
    assert before == after, "unwrapping did not restore the original attributes"
    self_s, calls = recorder.totals()
    assert calls == {"t.leaf": 2, "t.mid": 1, "t.top": 1, STATEMENT: 1}, calls
    root = next(s for s in recorder.spans if s[2] == STATEMENT)
    total = sum(self_s.values())
    assert abs(total - (root[4] - root[3])) < 1e-9, "self times do not sum to the root"
    assert root[4] - root[3] <= outer
    assert self_s["t.leaf"] >= 0.004 and self_s["t.mid"] < self_s["t.leaf"], self_s
    by_id = {s[0]: s for s in recorder.spans}
    assert all(s[1] is None or s[1] in by_id for s in recorder.spans), "dangling parent"
    try:
        _resolve("repro.optimizer", "no_such_layer_entry_point")
    except LayerMissing:
        pass
    else:
        raise AssertionError("a missing wrapped name must fail loudly")
