"""Simulated SQL-on-Hadoop engines running the executable query suite.

A :class:`SimulatedEngine` pairs an :class:`EngineProfile` with the
shared simulated cluster: HAWQ plans through Orca (cost-based, full
feature set), the others plan through the syntactic
:class:`~repro.planner.LegacyPlanner` restricted by their profile, and
each executes with its profile's memory/spill/MapReduce configuration —
reproducing the mechanics behind Figures 13-15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.catalog.database import Database
from repro.config import OptimizerConfig
from repro.engine.cluster import Cluster
from repro.engine.executor import Executor
from repro.errors import OutOfMemoryError, ReproError, TimeoutError_
from repro.optimizer import Orca
from repro.planner import LegacyPlanner
from repro.sql.parser import parse
from repro.sql.translator import Translator
from repro.systems.profiles import EngineProfile
from repro.workloads.tpcds_queries import Query


@dataclass
class RunOutcome:
    """Result of pushing one query through one engine."""

    engine: str
    query_id: str
    status: str  # 'ok' | 'unsupported' | 'oom' | 'timeout' | 'error'
    seconds: float = 0.0
    rows: Optional[list] = None
    detail: str = ""


class SimulatedEngine:
    """One engine instance over a shared database."""

    def __init__(
        self,
        profile: EngineProfile,
        db: Database,
        time_limit_seconds: Optional[float] = None,
    ):
        self.profile = profile
        self.db = db
        self.time_limit_seconds = time_limit_seconds
        self.config = OptimizerConfig(segments=profile.segments)
        self._orca = Orca(db, config=self.config) if profile.cost_based else None
        self._planner = LegacyPlanner(
            db, self.config, join_strategy=profile.join_strategy
        )

    # ------------------------------------------------------------------
    def query_features(self, query: Query) -> frozenset[str]:
        translator = Translator(self.db, share_ctes=False)
        translated = translator.translate(parse(query.sql))
        return frozenset(translated.features) | query.tags

    def supports(self, query: Query) -> bool:
        return not (self.query_features(query) & self.profile.unsupported_features)

    # ------------------------------------------------------------------
    def run(self, query: Query) -> RunOutcome:
        """Optimize and execute one query under this engine's profile."""
        try:
            if not self.supports(query):
                blocked = sorted(
                    self.query_features(query)
                    & self.profile.unsupported_features
                )
                return RunOutcome(
                    self.profile.name, query.id, "unsupported",
                    detail=",".join(blocked),
                )
        except ReproError as exc:
            return RunOutcome(
                self.profile.name, query.id, "unsupported", detail=str(exc)
            )
        try:
            if self._orca is not None:
                result = self._orca.optimize(query.sql)
                plan, cols = result.plan, result.output_cols
            else:
                result = self._planner.optimize(query.sql)
                plan, cols = result.plan, result.output_cols
        except ReproError as exc:
            return RunOutcome(
                self.profile.name, query.id, "error", detail=str(exc)
            )
        cluster = Cluster(
            self.db,
            segments=self.profile.segments,
            memory_limit_bytes=self.profile.memory_limit_bytes,
            spill_enabled=self.profile.spill,
        )
        executor = Executor(
            cluster,
            time_limit_seconds=self.time_limit_seconds,
            per_op_startup_units=self.profile.per_op_startup_units,
            materialize_output_factor=self.profile.materialize_output_factor,
        )
        try:
            execution = executor.execute(plan, cols)
        except OutOfMemoryError as exc:
            return RunOutcome(
                self.profile.name, query.id, "oom", detail=str(exc)
            )
        except TimeoutError_ as exc:
            return RunOutcome(
                self.profile.name, query.id, "timeout",
                seconds=self.time_limit_seconds or 0.0, detail=str(exc),
            )
        except ReproError as exc:
            return RunOutcome(
                self.profile.name, query.id, "error", detail=str(exc)
            )
        return RunOutcome(
            self.profile.name,
            query.id,
            "ok",
            seconds=execution.simulated_seconds(),
            rows=execution.rows,
        )
