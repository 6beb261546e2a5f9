"""repro.obs — observability: distributed traces, flight data, slow log.

Three pillars, one ``trace_id``, all fed by the one instrumentation
front (:class:`repro.trace.Tracer`):

- :mod:`repro.obs.spans` / :mod:`repro.obs.export` — span primitives and
  the Chrome-trace/Perfetto exporter for stitched fleet traces;
- :mod:`repro.obs.flight` — the always-on per-worker flight recorder
  dumped on crash, wedge, governor trip, or injected fault;
- :mod:`repro.obs.slowlog` — structured JSON slow-query / regression
  log records that cross-link to traces and the query stats store.
"""

from repro.obs.export import (
    chrome_trace,
    tracer_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.flight import (
    FlightRecorder,
    QueryRecord,
    load_flight_dump,
)
from repro.obs.slowlog import JsonLogFormatter, SlowQueryLog
from repro.obs.spans import Span, new_span_id, new_trace_id

__all__ = [
    "Span",
    "new_span_id",
    "new_trace_id",
    "chrome_trace",
    "tracer_chrome_trace",
    "validate_chrome_trace",
    "FlightRecorder",
    "QueryRecord",
    "load_flight_dump",
    "JsonLogFormatter",
    "SlowQueryLog",
]
