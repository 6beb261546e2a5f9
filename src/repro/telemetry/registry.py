"""Fleet-wide metrics: Counter / Gauge / Histogram families with labels.

The paper's evaluation is measurement (Section 6, Figures 11-15), and an
industrial optimizer additionally needs an *aggregate*, always-on view of
itself across queries and sessions — counters of scheduler jobs per kind,
Memo growth, plan-cache outcomes, governor trips, fleet routing — not
just the per-query traces of :mod:`repro.trace`.  A
:class:`MetricsRegistry` is that view: a process-wide (or fleet-wide)
collection of metric families that every layer increments, exported as

- Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`,
  validated by :func:`parse_prometheus`), and
- a JSON snapshot (:meth:`MetricsRegistry.to_json` /
  :meth:`MetricsRegistry.from_json`) that round-trips losslessly, e.g.
  embedded in AMPERe dumps.

A registry is a sink of the instrumentation front
(:class:`repro.trace.Tracer`), whose ``record`` / ``inc`` / ``observe``
/ ``set_gauge`` do nothing without one: there is no disabled registry.

Label values are **bounded**: a registry refuses values that are too long
or too numerous per label key (:class:`repro.errors.TelemetryError`), so
unbounded identifiers — raw SQL text above all — can never explode the
time-series cardinality the way they would in a real Prometheus fleet.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from typing import Any, Iterable, Optional

from repro.errors import TelemetryError
from repro.telemetry.families import EVENT_METRICS

#: Prefix of every exported metric name.
NAMESPACE = "repro"

#: Default latency buckets (seconds), roughly exponential like Prometheus'.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Label bounds: distinct values per label key, characters per value.
MAX_LABEL_VALUES = 64
MAX_LABEL_LENGTH = 128

#: Prometheus metric / label name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _labels_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Family:
    """One named metric family: a type, help text and labeled series."""

    type_name = "untyped"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        #: labels key -> scalar value (counters/gauges) or histogram state.
        self.series: dict[tuple, Any] = {}
        #: label key -> set of seen values (cardinality accounting).
        self._label_values: dict[str, set[str]] = {}

    def _check_labels(self, labels: dict[str, Any]) -> tuple:
        key = _labels_key(labels)
        for lname, lvalue in key:
            if not _LABEL_RE.match(lname):
                raise TelemetryError(
                    f"invalid label name {lname!r} on metric {self.name!r}"
                )
            if len(lvalue) > MAX_LABEL_LENGTH:
                raise TelemetryError(
                    f"label {lname}={lvalue[:40]!r}... on metric "
                    f"{self.name!r} exceeds {MAX_LABEL_LENGTH} "
                    "characters — label values must be bounded identifiers, "
                    "not payloads such as raw SQL"
                )
            seen = self._label_values.setdefault(lname, set())
            if lvalue not in seen:
                if len(seen) >= MAX_LABEL_VALUES:
                    raise TelemetryError(
                        f"label {lname!r} on metric {self.name!r} exceeded "
                        f"{MAX_LABEL_VALUES} distinct values — "
                        "refusing unbounded label cardinality"
                    )
                seen.add(lvalue)
        return key

    def value(self, **labels: Any) -> float:
        """A counter's or gauge's series (0.0 when absent)."""
        return self.series.get(_labels_key(labels), 0.0)


class Counter(_Family):
    """A monotonically increasing count, per label set."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = self._check_labels(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def total(self) -> float:
        return sum(self.series.values())


class Gauge(_Family):
    """A value that can go up and down, per label set."""

    type_name = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._check_labels(labels)
        self.series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._check_labels(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class Histogram(_Family):
    """Cumulative-bucket distribution, per label set."""

    type_name = "histogram"

    def __init__(
        self, name: str, help: str, buckets: Iterable[float] = DEFAULT_BUCKETS
    ):
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise TelemetryError(f"histogram {name!r} needs at least 1 bucket")

    def observe(self, value: float, **labels: Any) -> None:
        key = self._check_labels(labels)
        state = self.series.get(key)
        if state is None:
            state = {
                "bucket_counts": [0] * len(self.buckets),
                "sum": 0.0,
                "count": 0,
            }
            self.series[key] = state
        idx = bisect_left(self.buckets, value)
        if idx < len(self.buckets):
            state["bucket_counts"][idx] += 1
        state["sum"] += value
        state["count"] += 1

    def count(self, **labels: Any) -> int:
        state = self.series.get(_labels_key(labels))
        return state["count"] if state else 0

    def sum(self, **labels: Any) -> float:
        state = self.series.get(_labels_key(labels))
        return state["sum"] if state else 0.0

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Estimate the q-quantile (0 < q <= 1) from the bucket counts.

        Prometheus-style ``histogram_quantile``: find the bucket that
        holds the target rank and interpolate linearly inside it.
        Observations above the last bucket clamp to its bound.  Returns
        None when the series has no observations.
        """
        if not 0.0 < q <= 1.0:
            raise TelemetryError(f"quantile {q} outside (0, 1]")
        state = self.series.get(_labels_key(labels))
        if not state or not state["count"]:
            return None
        target = q * state["count"]
        cumulative = 0
        prev_bound = 0.0
        for bound, count in zip(self.buckets, state["bucket_counts"]):
            cumulative += count
            if count and cumulative >= target:
                frac = (target - (cumulative - count)) / count
                return prev_bound + (bound - prev_bound) * frac
            prev_bound = bound
        return self.buckets[-1]


class MetricsRegistry:
    """A named collection of Counter / Gauge / Histogram families.

    Every exported metric name carries the :data:`NAMESPACE` prefix (the
    fleet convention: ``repro_queries_total``).  The convenience methods
    (:meth:`inc`, :meth:`set_gauge`, :meth:`observe`) auto-create the
    family on first use so instrumentation sites stay one-liners.
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _full_name(self, name: str) -> str:
        full = f"{NAMESPACE}_{name}"
        if not _NAME_RE.match(full):
            raise TelemetryError(f"invalid metric name {full!r}")
        return full

    def _family(self, name: str, klass: type, help: str, **kwargs) -> _Family:
        full = self._full_name(name)
        family = self._families.get(full)
        if family is None:
            family = klass(full, help, **kwargs)
            self._families[full] = family
        elif type(family) is not klass:
            raise TelemetryError(
                f"metric {full!r} already registered as "
                f"{family.type_name}, not {klass.type_name}"
            )
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(name, Gauge, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._family(name, Histogram, help, buckets=buckets)

    # -- one-liner instrumentation helpers -----------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.counter(name).inc(amount, **labels)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histogram(name).observe(value, **labels)

    def count_event(self, kind: str, data: dict[str, Any]) -> None:
        """Count one recorded trace event in the families it maps to."""
        for family, labels, when in EVENT_METRICS.get(kind, ()):
            if when is None or data.get(when[0]) == when[1]:
                self.inc(family, **{
                    name: data[value[1:]] if value[0] == "$" else value
                    for name, value in labels.items()
                })

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge series (0.0 when absent)."""
        family = self._families.get(self._full_name(name))
        if family is None or isinstance(family, Histogram):
            return 0.0
        return family.series.get(_labels_key(labels), 0.0)

    def quantile(self, name: str, q: float, **labels: Any) -> Optional[float]:
        """Histogram quantile estimate (None for absent/empty series)."""
        family = self._families.get(self._full_name(name))
        if not isinstance(family, Histogram):
            return None
        return family.quantile(q, **labels)

    # ------------------------------------------------------------------
    # Export: JSON snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {"version": 1, "namespace": NAMESPACE,
                               "families": {}}
        for name in sorted(self._families):
            family = self._families[name]
            entry: dict[str, Any] = {
                "type": family.type_name,
                "help": family.help,
                "series": [],
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
                for key in sorted(family.series):
                    state = family.series[key]
                    entry["series"].append({
                        "labels": dict(key),
                        "bucket_counts": list(state["bucket_counts"]),
                        "sum": state["sum"],
                        "count": state["count"],
                    })
            else:
                for key in sorted(family.series):
                    entry["series"].append(
                        {"labels": dict(key), "value": family.series[key]}
                    )
            out["families"][name] = entry
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        """Rebuild a registry (families + series) from a JSON snapshot."""
        payload = json.loads(text)
        registry = cls()
        for full_name, entry in payload.get("families", {}).items():
            name = full_name.removeprefix(NAMESPACE + "_")
            kind = entry.get("type", "counter")
            help = entry.get("help", "")
            if kind == "histogram":
                family = registry.histogram(
                    name, help, buckets=entry.get("buckets", DEFAULT_BUCKETS)
                )
            else:
                family = (
                    registry.gauge if kind == "gauge" else registry.counter
                )(name, help)
            for series in entry.get("series", []):
                key = family._check_labels(series.get("labels", {}))
                family.series[key] = (
                    float(series["value"]) if kind != "histogram"
                    else {
                        "bucket_counts": list(series["bucket_counts"]),
                        "sum": series["sum"],
                        "count": series["count"],
                    }
                )
        return registry

    # ------------------------------------------------------------------
    # Export: Prometheus text exposition format
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format 0.0.4."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {_escape(family.help)}")
            lines.append(f"# TYPE {name} {family.type_name}")
            if isinstance(family, Histogram):
                for key in sorted(family.series):
                    state = family.series[key]
                    cumulative = 0
                    for bound, count in zip(
                        family.buckets, state["bucket_counts"]
                    ):
                        cumulative += count
                        bkey = key + (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(bkey)} {cumulative}"
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_render_labels(inf_key)} "
                        f"{state['count']}"
                    )
                    lines.append(
                        f"{name}_sum{_render_labels(key)} "
                        f"{_format_value(state['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(key)} {state['count']}"
                    )
            else:
                for key in sorted(family.series):
                    lines.append(
                        f"{name}{_render_labels(key)} "
                        f"{_format_value(family.series[key])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable table of every non-histogram series."""
        lines = ["=== telemetry ==="]
        for name in sorted(self._families):
            family = self._families[name]
            if isinstance(family, Histogram):
                for key in sorted(family.series):
                    state = family.series[key]
                    mean = state["sum"] / state["count"] if state["count"] else 0.0
                    lines.append(
                        f"{name}{_render_labels(key)}  count={state['count']} "
                        f"mean={mean:.6f}"
                    )
            else:
                for key in sorted(family.series):
                    lines.append(
                        f"{name}{_render_labels(key)}  "
                        f"{_format_value(family.series[key])}"
                    )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._families)} families)"


# ----------------------------------------------------------------------
# Prometheus text-format validation (the CI gate)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+\d+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*([a-zA-Z_][a-zA-Z0-9_]*)=("(?:[^"\\]|\\.)*")\s*(?:,|$)'
)


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Strictly parse Prometheus text exposition format.

    Returns ``{metric name: [(labels, value), ...]}``.  Raises
    :class:`repro.errors.TelemetryError` on any malformed line — this is
    the validator CI runs against the exported snapshot, so a formatting
    regression fails the build instead of silently breaking scrapes.
    """
    out: dict[str, list[tuple[dict, float]]] = {}
    typed: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise TelemetryError(
                    f"line {lineno}: malformed comment line {line!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) < 4 or parts[3].split()[0] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise TelemetryError(
                        f"line {lineno}: unknown TYPE in {line!r}"
                    )
                typed[parts[2]] = parts[3].split()[0]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise TelemetryError(f"line {lineno}: malformed sample {line!r}")
        labels: dict[str, str] = {}
        raw = (match.group("labels") or "").strip()
        pos = 0
        while pos < len(raw):
            pair = _LABEL_PAIR_RE.match(raw, pos)
            if pair is None:
                raise TelemetryError(
                    f"line {lineno}: malformed label pair {raw[pos:]!r}"
                )
            labels[pair.group(1)] = json.loads(pair.group(2))
            pos = pair.end()
        raw_value = match.group("value")
        try:
            value = (
                math.inf if raw_value == "+Inf"
                else -math.inf if raw_value == "-Inf"
                else float("nan") if raw_value == "NaN"
                else float(raw_value)
            )
        except ValueError as exc:
            raise TelemetryError(
                f"line {lineno}: bad sample value {raw_value!r}"
            ) from exc
        out.setdefault(match.group("name"), []).append((labels, value))
    # Histogram series must carry their _bucket/_sum/_count triplet.
    for name, kind in typed.items():
        if kind == "histogram" and name + "_count" in out:
            if name + "_bucket" not in out or name + "_sum" not in out:
                raise TelemetryError(
                    f"histogram {name!r} is missing _bucket or _sum series"
                )
    return out
