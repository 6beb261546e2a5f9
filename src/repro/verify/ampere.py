"""AMPERe: Automatic capture of Minimal Portable Executable Repros.

Section 6.1 / Listing 2 / Figure 10.  A dump captures the minimal data
needed to reproduce a problem — the input query, optimizer configuration
(trace flags) and the metadata accessed during optimization, serialized
in DXL — plus a stack trace when the dump was triggered by an exception.
Replaying the dump rebuilds a file-based metadata provider and re-runs an
identical optimization session with the backend offline; a dump can also
act as a self-contained test case by embedding the expected plan.
"""

from __future__ import annotations

import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.catalog.database import Database
from repro.config import OptimizerConfig
from repro.dxl.parser import parse_metadata, parse_query
from repro.dxl.serializer import (
    serialize_metadata,
    serialize_plan,
    serialize_query,
    to_string,
)
from repro.errors import DXLError
from repro.ops.logical import LogicalGet
from repro.ops.scalar import ColumnFactory
from repro.optimizer import OptimizationResult, Orca
from repro.search.plan import PlanNode
from repro.sql.translator import CTEDef, TranslatedQuery, Translator
from repro.sql.parser import parse


@dataclass
class AMPEReDump:
    """An in-memory AMPERe dump."""

    query_xml: ET.Element
    metadata_xml: ET.Element
    trace_flags: tuple[str, ...] = ()
    segments: int = 16
    stacktrace: Optional[str] = None
    expected_plan_xml: Optional[ET.Element] = None
    #: JSON dump of the capturing session's structured trace
    #: (:meth:`repro.trace.Tracer.to_json`), when one was collected.
    trace_json: Optional[str] = None
    #: JSON snapshot of the capturing session's telemetry registry
    #: (:meth:`repro.telemetry.MetricsRegistry.to_json`), when attached.
    metrics_json: Optional[str] = None

    # ------------------------------------------------------------------
    def to_xml(self) -> ET.Element:
        root = ET.Element("DXLMessage")
        thread = ET.SubElement(root, "Thread")
        thread.set("Id", "0")
        if self.stacktrace:
            st = ET.SubElement(thread, "Stacktrace")
            st.text = self.stacktrace
        flags = ET.SubElement(thread, "TraceFlags")
        flags.set("Value", ",".join(self.trace_flags))
        config = ET.SubElement(thread, "Configuration")
        config.set("Segments", str(self.segments))
        thread.append(self.metadata_xml)
        # query_xml is a full DXLMessage; embed its Query element.
        query = self.query_xml.find("Query")
        if query is None:
            raise DXLError("dump query document has no Query element")
        thread.append(query)
        if self.expected_plan_xml is not None:
            plan = self.expected_plan_xml.find("Plan")
            if plan is not None:
                thread.append(plan)
        if self.trace_json:
            trace = ET.SubElement(thread, "OptimizerTrace")
            trace.text = self.trace_json
        if self.metrics_json:
            snapshot = ET.SubElement(thread, "TelemetrySnapshot")
            snapshot.text = self.metrics_json
        return root

    def to_string(self) -> str:
        return to_string(self.to_xml())

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_string(), encoding="utf-8")

    # ------------------------------------------------------------------
    @classmethod
    def from_xml(cls, root: ET.Element) -> "AMPEReDump":
        thread = root.find("Thread")
        if thread is None:
            raise DXLError("not an AMPERe dump: no Thread element")
        metadata = thread.find("Metadata")
        query = thread.find("Query")
        if metadata is None or query is None:
            raise DXLError("dump is missing Metadata or Query")
        st = thread.find("Stacktrace")
        flags_elem = thread.find("TraceFlags")
        flags = tuple(
            f for f in (flags_elem.get("Value", "").split(",") if flags_elem is not None else [])
            if f
        )
        config = thread.find("Configuration")
        segments = int(config.get("Segments", "16")) if config is not None else 16
        # Re-wrap the query element in a message for parse_query.
        wrapper = ET.Element("DXLMessage")
        wrapper.append(query)
        plan = thread.find("Plan")
        plan_wrapper = None
        if plan is not None:
            plan_wrapper = ET.Element("DXLMessage")
            plan_wrapper.append(plan)
        trace_elem = thread.find("OptimizerTrace")
        metrics_elem = thread.find("TelemetrySnapshot")
        return cls(
            query_xml=wrapper,
            metadata_xml=metadata,
            trace_flags=flags,
            segments=segments,
            stacktrace=st.text if st is not None else None,
            expected_plan_xml=plan_wrapper,
            trace_json=trace_elem.text if trace_elem is not None else None,
            metrics_json=(
                metrics_elem.text if metrics_elem is not None else None
            ),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AMPEReDump":
        return cls.from_xml(
            ET.fromstring(Path(path).read_text(encoding="utf-8"))
        )


# ----------------------------------------------------------------------
def capture_dump(
    db: Database,
    sql: str,
    config: Optional[OptimizerConfig] = None,
    exception: Optional[BaseException] = None,
    expected_plan: Optional[PlanNode] = None,
    trace=None,
    metrics=None,
) -> AMPEReDump:
    """Capture a minimal repro for a query.

    Only metadata for relations the query actually touches is harvested —
    "the dump captures the minimal amount of data needed to reproduce a
    problem".
    """
    config = config or OptimizerConfig()
    factory = ColumnFactory()
    translator = Translator(db, factory, share_ctes=config.enable_cte_sharing)
    query = translator.translate(parse(sql))
    touched: list[str] = []
    trees = [query.tree] + [cte.tree for cte in query.cte_defs]
    for tree in trees:
        for node in tree.walk():
            if isinstance(node.op, LogicalGet) and node.op.table.name not in touched:
                touched.append(node.op.table.name)
    query_xml = serialize_query(
        query.tree,
        query.output_cols,
        query.required_sort,
        system=db.system_id,
        cte_producers=[
            (cte.cte_id, cte.tree, cte.output_cols) for cte in query.cte_defs
        ],
    )
    stack = None
    if exception is not None:
        stack = "".join(
            traceback.format_exception(
                type(exception), exception, exception.__traceback__
            )
        )
    return AMPEReDump(
        query_xml=query_xml,
        metadata_xml=serialize_metadata(db, touched),
        trace_flags=tuple(sorted(config.trace_flags)),
        segments=config.segments,
        stacktrace=stack,
        expected_plan_xml=(
            serialize_plan(expected_plan) if expected_plan is not None else None
        ),
        trace_json=(
            trace.to_json() if trace is not None and trace.enabled else None
        ),
        metrics_json=metrics.to_json() if metrics is not None else None,
    )


def replay_dump(
    dump: AMPEReDump,
    config: Optional[OptimizerConfig] = None,
    metrics=None,
) -> OptimizationResult:
    """Replay a dump offline: rebuild metadata, re-run the optimization.

    This is Figure 10: the dump supplies the query, a file-based metadata
    provider and the configuration; no backend system is involved.
    """
    db = parse_metadata(dump.metadata_xml)
    factory = ColumnFactory()
    tree, output_cols, required_sort, cte_producers = parse_query(
        dump.query_xml, db, factory
    )
    config = config or OptimizerConfig(
        segments=dump.segments,
        trace_flags=frozenset(dump.trace_flags),
    )
    cte_defs = [
        CTEDef(
            cte_id=cte_id,
            name=f"cte_{cte_id}",
            tree=producer_tree,
            output_cols=list(cols),
            output_names=[c.name for c in cols],
            consumer_count=2,
        )
        for cte_id, producer_tree, cols in cte_producers
    ]
    query = TranslatedQuery(
        tree=tree,
        output_cols=list(output_cols),
        output_names=[c.name for c in output_cols],
        required_sort=required_sort,
        cte_defs=cte_defs,
    )
    orca = Orca(db, config=config, metrics=metrics)
    return orca.optimize_translated(query, factory)


def plans_match(dump: AMPEReDump, result: OptimizationResult) -> bool:
    """Compare a replay's plan against the dump's expected plan.

    "When replaying the dump file, Orca might generate a plan different
    from the expected one ... such discrepancy causes the test case to
    fail" (Section 6.1).
    """
    if dump.expected_plan_xml is None:
        return True
    expected = dump.expected_plan_xml.find("Plan")
    actual = serialize_plan(result.plan).find("Plan")
    def normalize(elem):
        return "".join(to_string(elem).split())

    return normalize(expected) == normalize(actual)
