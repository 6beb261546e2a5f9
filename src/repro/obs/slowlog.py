"""Structured slow-query log: the repo's first stdlib-``logging`` layer.

Traces answer "what happened inside this query"; metrics answer "how is
the fleet doing"; the slow-query log answers "which queries should a
human look at".  A :class:`SlowQueryLog` observes every completed query
and emits one JSON log record when either trigger fires:

- **threshold** — wall time exceeded ``threshold_ms`` (CLI
  ``--slow-query-ms``);
- **regression** — optimization time regressed ``REGRESSION_FACTOR``×
  against the query's fingerprint baseline in the
  :class:`~repro.telemetry.stats_store.QueryStatsStore` (the baseline
  must have at least ``MIN_BASELINE_CALLS`` prior calls, and the query
  must clear ``MIN_DURATION_MS``, so microsecond jitter on trivial
  queries can't page anyone).

Each record carries the query's ``trace_id``, fingerprint, plan source,
per-phase timings and q-error, so logs cross-link to traces and to the
stats store by one ID.  Records go through a directly-instantiated
``logging.Logger`` (not ``getLogger``) with a JSON formatter: no global
logger-tree pollution, no duplicate handlers when tests build many
sessions, and any stdlib handler can be attached for shipping.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Optional, TextIO

#: Regression trigger: current opt time vs. fingerprint-baseline mean.
REGRESSION_FACTOR = 3.0
#: Baseline quality gate: calls required before regressions can fire.
MIN_BASELINE_CALLS = 2
#: Noise floor: queries faster than this can't be "regressions".
MIN_DURATION_MS = 1.0


class JsonLogFormatter(logging.Formatter):
    """Render each record as one JSON object per line.

    Structured payloads travel on the record's ``slow_query`` attribute
    (via ``extra=``); scalar fields are merged into the top level so the
    output greps cleanly (``jq 'select(.reason=="regression")'``).
    """

    def format(self, record: logging.LogRecord) -> str:
        out: dict[str, Any] = {
            "ts": self.formatTime(record, "%Y-%m-%dT%H:%M:%S%z"),
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
        }
        payload = getattr(record, "slow_query", None)
        if payload:
            out.update(payload)
        return json.dumps(out, default=str)


class SlowQueryLog:
    """Observes query completions; logs the slow and the regressed."""

    def __init__(
        self,
        threshold_ms: Optional[float] = None,
        *,
        stream: Optional[TextIO] = None,
        name: str = "repro.slowlog",
    ):
        self.threshold_ms = threshold_ms
        # A free-standing Logger (parent None): immune to root-logger
        # config and never duplicated by repeated construction.
        self.logger = logging.Logger(name)
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(JsonLogFormatter())
        self.logger.addHandler(handler)
        #: Structured payloads actually emitted (newest last), for tests
        #: and the CLI report; observation count for overhead math.
        self.records: list[dict[str, Any]] = []
        self.observed = 0

    # ------------------------------------------------------------------
    def observe(
        self,
        *,
        sql: str,
        seconds: float,
        opt_seconds: Optional[float] = None,
        exec_seconds: Optional[float] = None,
        phases: Optional[dict[str, float]] = None,
        trace_id: Optional[str] = None,
        plan_source: Optional[str] = None,
        q_error: Optional[float] = None,
        fingerprint: Optional[str] = None,
        baseline: Optional[Any] = None,
        session: Optional[str] = None,
    ) -> Optional[dict[str, Any]]:
        """Consider one completed query; returns the payload if logged.

        ``baseline`` is the query's *prior* QueryStats (looked up before
        this call was folded in) — or None for a first-seen fingerprint.
        """
        self.observed += 1
        duration_ms = seconds * 1000.0
        reasons: list[str] = []
        if self.threshold_ms is not None and duration_ms >= self.threshold_ms:
            reasons.append("threshold")
        compare = opt_seconds if opt_seconds is not None else seconds
        baseline_mean = getattr(baseline, "mean_opt_seconds", 0.0) if baseline else 0.0
        baseline_calls = getattr(baseline, "calls", 0) if baseline else 0
        if (
            baseline_calls >= MIN_BASELINE_CALLS
            and baseline_mean > 0.0
            and compare >= REGRESSION_FACTOR * baseline_mean
            and compare * 1000.0 >= MIN_DURATION_MS
        ):
            reasons.append("regression")
        if not reasons:
            return None

        payload: dict[str, Any] = {
            "reason": "+".join(reasons),
            "sql": sql,
            "duration_ms": round(duration_ms, 3),
        }
        if opt_seconds is not None:
            payload["opt_ms"] = round(opt_seconds * 1000.0, 3)
        if exec_seconds is not None:
            payload["exec_ms"] = round(exec_seconds * 1000.0, 3)
        if phases:
            payload["phases_ms"] = {
                name: round(sec * 1000.0, 3) for name, sec in phases.items()
            }
        if trace_id is not None:
            payload["trace_id"] = trace_id
        if plan_source is not None:
            payload["plan_source"] = plan_source
        if q_error is not None:
            payload["q_error"] = round(q_error, 4)
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        if baseline_calls:
            payload["baseline_mean_ms"] = round(baseline_mean * 1000.0, 3)
            payload["baseline_calls"] = baseline_calls
        if session is not None:
            payload["session"] = session

        self.records.append(payload)
        self.logger.warning("slow_query", extra={"slow_query": payload})
        return payload
