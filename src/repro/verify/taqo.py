"""TAQO: Testing the Accuracy of Query Optimizers (Section 6.2, Figure 11).

TAQO measures the cost model's ability to *order* plans correctly: the
plan with the higher estimated cost should indeed run longer.  Plans are
sampled uniformly from the search space using the optimization requests'
linkage structure (the counting/sampling method of paper ref [29]), each
sample is executed on the simulated cluster, and a correlation score is
computed that (a) penalizes mis-ordering of very good plans more and
(b) ignores pairs whose actual costs are too close to matter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.engine.cluster import Cluster
from repro.engine.executor import Executor
from repro.memo.memo import Memo
from repro.ops.physical import PhysicalSequence
from repro.props.required import RequiredProps
from repro.search.plan import PlanNode


@dataclass
class SampledPlan:
    plan: PlanNode
    estimated_cost: float
    actual_seconds: float = 0.0


@dataclass
class TaqoReport:
    samples: list[SampledPlan] = field(default_factory=list)
    correlation: float = 0.0
    plan_space_size: float = 0.0

    def ranked_by_estimate(self) -> list[SampledPlan]:
        return sorted(self.samples, key=lambda s: s.estimated_cost)

    def ranked_by_actual(self) -> list[SampledPlan]:
        return sorted(self.samples, key=lambda s: s.actual_seconds)


# ----------------------------------------------------------------------
# Plan space counting and uniform sampling (ref [29])
# ----------------------------------------------------------------------

def _valid_gexprs(memo: Memo, group_id: int, req: RequiredProps):
    group = memo.group(group_id)
    out = []
    for gexpr in group.physical_gexprs():
        if gexpr.plan_for(req) is not None:
            out.append(gexpr)
    return out


def count_plans(
    memo: Memo,
    group_id: int,
    req: RequiredProps,
    _memo_table: Optional[dict] = None,
) -> float:
    """Number of distinct costed plans recorded for (group, request)."""
    if _memo_table is None:
        _memo_table = {}
    key = (memo.find(group_id), req.id)
    if key in _memo_table:
        return _memo_table[key]
    _memo_table[key] = 0.0  # break cycles defensively
    total = 0.0
    for gexpr in _valid_gexprs(memo, group_id, req):
        info = gexpr.plan_for(req)
        product = 1.0
        for child_group, child_req in zip(gexpr.child_groups, info.child_reqs):
            product *= count_plans(memo, child_group, child_req, _memo_table)
        total += product
    _memo_table[key] = total
    return total


def _sample_plan(
    memo: Memo,
    group_id: int,
    req: RequiredProps,
    rng: random.Random,
    counts: dict,
    cte_plans: dict,
) -> tuple[PlanNode, float]:
    """Sample one plan uniformly; returns (plan, cost)."""
    gexprs = _valid_gexprs(memo, group_id, req)
    weights = []
    for gexpr in gexprs:
        info = gexpr.plan_for(req)
        w = 1.0
        for child_group, child_req in zip(gexpr.child_groups, info.child_reqs):
            w *= count_plans(memo, child_group, child_req, counts)
        weights.append(w)
    total = sum(weights)
    if total <= 0:
        raise ValueError("no plans to sample")
    pick = rng.random() * total
    acc = 0.0
    chosen = gexprs[-1]
    for gexpr, w in zip(gexprs, weights):
        acc += w
        if pick <= acc:
            chosen = gexpr
            break
    info = chosen.plan_for(req)
    children = []
    cost = info.local_cost
    for child_group, child_req in zip(chosen.child_groups, info.child_reqs):
        child_plan, child_cost = _sample_plan(
            memo, child_group, child_req, rng, counts, cte_plans
        )
        children.append(child_plan)
        cost += child_cost
    if isinstance(chosen.op, PhysicalSequence) and cte_plans:
        producer = cte_plans.get(chosen.op.cte_id)
        if producer is not None:
            children = [producer] + children
    group = memo.group(group_id)
    node = PlanNode(
        op=chosen.op,
        children=children,
        output_cols=list(group.output_cols),
        rows_estimate=group.stats.row_count if group.stats else 0.0,
        cost=cost,
        delivered=info.delivered,
    )
    return node, cost


def sample_plans(
    memo: Memo,
    req: RequiredProps,
    n: int,
    seed: int = 42,
    cte_plans: Optional[dict] = None,
) -> list[SampledPlan]:
    """Sample up to ``n`` plans uniformly from the Memo's plan space."""
    rng = random.Random(seed)
    counts: dict = {}
    count_plans(memo, memo.root, req, counts)
    samples: list[SampledPlan] = []
    seen: set[float] = set()
    attempts = 0
    while len(samples) < n and attempts < n * 20:
        attempts += 1
        plan, cost = _sample_plan(
            memo, memo.root, req, rng, counts, cte_plans or {}
        )
        fingerprint = _plan_fingerprint(plan)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        samples.append(SampledPlan(plan=plan, estimated_cost=cost))
    return samples


def _plan_fingerprint(plan: PlanNode):
    return (
        plan.op.key(),
        tuple(_plan_fingerprint(c) for c in plan.children),
    )


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def correlation_score(
    samples: Sequence[SampledPlan], distance_threshold: float = 0.05
) -> float:
    """Importance-weighted, distance-thresholded rank correlation.

    For every significant pair (actual costs differing by more than the
    threshold), score +w if the estimated ordering agrees with the actual
    ordering and -w otherwise, where w = 1/min(actual rank) so that
    mis-ordering the best plans is penalized hardest.  Result is in
    [-1, 1]; 1 = perfect ordering.
    """
    ranked = sorted(samples, key=lambda s: s.actual_seconds)
    rank = {id(s): i + 1 for i, s in enumerate(ranked)}
    num = 0.0
    den = 0.0
    n = len(samples)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = samples[i], samples[j]
            hi = max(a.actual_seconds, b.actual_seconds)
            if hi <= 0:
                continue
            if abs(a.actual_seconds - b.actual_seconds) / hi < distance_threshold:
                continue  # too close in actual cost to matter
            weight = 1.0 / min(rank[id(a)], rank[id(b)])
            agree = (a.estimated_cost - b.estimated_cost) * (
                a.actual_seconds - b.actual_seconds
            ) > 0
            num += weight if agree else -weight
            den += weight
    return num / den if den else 1.0


def run_taqo(
    memo: Memo,
    req: RequiredProps,
    cluster: Cluster,
    output_cols=None,
    n: int = 16,
    seed: int = 42,
    cte_plans: Optional[dict] = None,
) -> TaqoReport:
    """Sample, execute and score: the full TAQO loop."""
    samples = sample_plans(memo, req, n, seed=seed, cte_plans=cte_plans)
    for sample in samples:
        executor = Executor(cluster)
        result = executor.execute(sample.plan, output_cols)
        sample.actual_seconds = result.simulated_seconds()
    counts: dict = {}
    return TaqoReport(
        samples=samples,
        correlation=correlation_score(samples),
        plan_space_size=count_plans(memo, memo.root, req, counts),
    )
