"""Pipeline segmentation: split a physical plan at pipeline breakers.

Following the compiled-pipelines model of "Fast OLAP Query Execution in
Main Memory on Large Data in a Cluster" (and Neumann's produce/consume
codegen), a *pipeline* is a maximal chain of streaming operators a row
can traverse without being materialized: filters, projects, and the
probe side of a hash join, optionally terminated by an aggregation sink.

Everything else is a *pipeline breaker* — it must see (or buffer) its
whole input before producing output, so a new pipeline starts above it
and its own subtrees are segmented independently:

- the **build side of a hash join** (materialized into a hash table),
- **aggregations** consumed from below (an agg may only *sink* a
  pipeline, never stream through it) — a breaker that is *also a
  source*: an aggregation feeding a streaming chain (a ``HAVING``
  filter, a projection, a join probe) is that chain's source and the
  sink on top of the next pipeline down, so it is compiled like any
  other,
- **sorts** (and the sorting gather-merge motion),
- **motions** (rows leave the segment: gather, redistribute, broadcast),
- and all remaining stateful operators (limits, windows, NL/merge
  joins, CTE producers/consumers, sequences, appends).

The compiled engine (:mod:`repro.engine.fused`) turns every pipeline
that has a streaming member or a sink into generated Python loop
functions, expressions included (:func:`fusable_pipelines`); a breaker
with nothing streaming above it runs on its handler.

Segmentation has one switch, ``fuse``.  With it (``ExecutionMode.FUSED``)
a chain is as long as the rules above allow; without it
(``ExecutionMode.ROW``) every streaming operator and every sink is a
one-operator chain of its own, whose child is its source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.ops import physical as ph
from repro.search.plan import PlanNode

#: Operators a row streams through without materialization.  A hash
#: join streams on its probe (outer) side only; the build side below it
#: is a breaker.
STREAMING_OPS = (ph.PhysicalFilter, ph.PhysicalProject, ph.PhysicalHashJoin)

#: Operators that may terminate (sink) a pipeline from above.
SINK_OPS = (ph.PhysicalHashAgg, ph.PhysicalStreamAgg)


@dataclass
class Pipeline:
    """One breaker-free chain of a physical plan.

    ``ops`` lists the streaming member nodes bottom-up (the node closest
    to ``source`` first); ``source`` is the breaker (or leaf) node whose
    output feeds the chain.  A breaker with no streaming consumers above
    it appears as its own pipeline with ``ops == []``.
    """

    source: PlanNode
    ops: list[PlanNode] = field(default_factory=list)
    #: Lazily-attached compiled form (repro.engine.fused.CompiledChain);
    #: never pickled.
    compiled: Optional[object] = None

    @property
    def top(self) -> PlanNode:
        return self.ops[-1] if self.ops else self.source

    def nodes(self) -> Iterable[PlanNode]:
        yield self.source
        yield from self.ops

    def describe(self) -> str:
        names = [self.source.op.name] + [n.op.name for n in self.ops]
        return " -> ".join(names)


def _chain_down(top: PlanNode, fuse: bool) -> tuple[list[PlanNode], PlanNode]:
    """Collect the streaming chain hanging below ``top`` (inclusive):
    as far as it streams with ``fuse``, ``top`` alone without.

    Returns ``(members_bottom_up, source)``.  ``top`` itself may be an
    aggregation (a sink); aggregations anywhere lower are breakers.
    """
    members: list[PlanNode] = []
    cur = top
    if isinstance(cur.op, SINK_OPS):
        members.append(cur)
        cur = cur.children[0]
    while isinstance(cur.op, STREAMING_OPS) and (fuse or not members):
        members.append(cur)
        cur = cur.children[0]  # a hash join streams its outer side
    members.reverse()
    return members, cur


def split_pipelines(plan: PlanNode, fuse: bool = True) -> list[Pipeline]:
    """Partition ``plan`` into pipelines: every node is a member
    (``top`` of its chain or inside it) of exactly one, and a chain
    member kind that sources a pipeline is also the top of its own.

    Returned in discovery order from the root down: a pipeline is listed
    before the pipelines of its source's and build sides' subtrees.
    """
    out: list[Pipeline] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        members, source = _chain_down(node, fuse)
        out.append(Pipeline(source=source, ops=members))
        # The chain's build sides and the source's children each start
        # fresh pipelines of their own.  A source that could have been a
        # member — a sink (an aggregation feeding a HAVING filter, a
        # projection, a join probe), or any streaming operator when
        # nothing is fused — tops the next pipeline down instead of
        # vanishing into this one as a bare source.
        for member in members:
            if isinstance(member.op, ph.PhysicalHashJoin):
                stack.append(member.children[1])
        if isinstance(source.op, STREAMING_OPS + SINK_OPS):
            stack.append(source)
        else:
            stack.extend(source.children)
    return out


def fusable_pipelines(plan: PlanNode, fuse: bool = True) -> list[Pipeline]:
    """The pipelines the compiler takes: every one that has ops.  What
    is left (``ops == []``) is a breaker or leaf with no streaming
    consumer above it, which runs on its handler."""
    return [p for p in split_pipelines(plan, fuse) if p.ops]
