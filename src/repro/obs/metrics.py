"""Metrics registry: counters, gauges and histograms.

This subsumes the ad-hoc statistic dictionaries the runtimes used to keep
(`RunStats.jobs_executed` et al.): every counter the Satin/Cashmere runtimes
maintain now lives in one :class:`MetricsRegistry`, and the legacy
``RunStats`` fields are read-only *views* over it — one bookkeeping path,
one source of truth.

Metric semantics follow the Prometheus conventions loosely:

* :class:`Counter` — monotonically non-decreasing; ``inc()`` rejects
  negative amounts (property-tested in ``tests/test_obs_properties.py``),
* :class:`Gauge`   — a value that can go anywhere (utilizations, ratios),
* :class:`Histogram` — stores observations; exposes count/sum/min/max and
  sample quantiles that are always bounded by min/max.

All three support labels (keyword arguments on the mutation calls), which
the runtimes use for per-node and per-device breakdowns.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelKey = Tuple[Tuple[str, Any], ...]


def _key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Metric:
    """Shared naming/help scaffolding."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Counter(Metric):
    """A monotone, labelled counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotone; cannot inc by {amount}")
        key = _key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def child(self, **labels: Any):
        """Bound incrementer for hot paths.

        Resolves the label key once and returns a plain callable
        ``inc(amount=1.0)`` that updates a single dict slot — the runtimes
        call these per spawn/steal/job, so the per-call cost matters.  The
        monotonicity contract is preserved.
        """
        key = _key(labels)
        values = self._values
        values.setdefault(key, 0.0)
        name = self.name

        def inc(amount: float = 1.0) -> None:
            if amount < 0:
                raise ValueError(
                    f"counter {name!r} is monotone; cannot inc by {amount}")
            values[key] += amount

        return inc

    def value(self, **labels: Any) -> float:
        """Value of one labelled child (0.0 if never incremented)."""
        return self._values.get(_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum over all labelled children."""
        return sum(self._values.values())

    def by_label(self, label: str) -> Dict[Any, float]:
        """Aggregate children by one label dimension."""
        out: Dict[Any, float] = {}
        for key, value in self._values.items():
            for k, v in key:
                if k == label:
                    out[v] = out.get(v, 0.0) + value
        return out

    def items(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Gauge(Metric):
    """A labelled gauge (set/add, any value)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_key(labels)] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_key(labels), 0.0)

    def by_label(self, label: str) -> Dict[Any, float]:
        out: Dict[Any, float] = {}
        for key, value in self._values.items():
            for k, v in key:
                if k == label:
                    out[v] = value
        return out

    def items(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Histogram(Metric):
    """A labelled histogram over raw observations.

    Simulated runs are small enough that keeping the raw samples is cheap
    and exact; quantiles interpolate between order statistics and are
    therefore always within ``[min, max]``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._samples: Dict[LabelKey, List[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._samples.setdefault(_key(labels), []).append(float(value))

    def child(self, **labels: Any):
        """Bound observer for hot paths (label key resolved once)."""
        samples = self._samples.setdefault(_key(labels), [])

        def observe(value: float) -> None:
            samples.append(float(value))

        return observe

    def _all(self, labels: Dict[str, Any]) -> List[float]:
        if labels:
            return self._samples.get(_key(labels), [])
        merged: List[float] = []
        for samples in self._samples.values():
            merged.extend(samples)
        return merged

    def count(self, **labels: Any) -> int:
        return len(self._all(labels))

    def sum(self, **labels: Any) -> float:
        return sum(self._all(labels))

    def min(self, **labels: Any) -> Optional[float]:
        samples = self._all(labels)
        return min(samples) if samples else None

    def max(self, **labels: Any) -> Optional[float]:
        samples = self._all(labels)
        return max(samples) if samples else None

    def mean(self, **labels: Any) -> Optional[float]:
        samples = self._all(labels)
        return sum(samples) / len(samples) if samples else None

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Sample quantile with linear interpolation; None if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        return _sample_quantile(sorted(self._all(labels)), q)

    def items(self) -> List[Tuple[LabelKey, List[float]]]:
        return sorted(self._samples.items())


def _sample_quantile(samples: List[float], q: float) -> Optional[float]:
    """Linear-interpolation quantile of pre-sorted samples; None if empty."""
    if not samples:
        return None
    if len(samples) == 1:
        return samples[0]
    pos = q * (len(samples) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(samples) - 1)
    frac = pos - lo
    value = samples[lo] * (1.0 - frac) + samples[hi] * frac
    # clamp fp interpolation error: the [min, max] bound is a contract
    if value < samples[0]:
        return samples[0]
    if value > samples[-1]:
        return samples[-1]
    return value


def _histogram_entry(samples: List[float]) -> Dict[str, Any]:
    """One histogram label-set in snapshot form, with summary quantiles."""
    ordered = sorted(samples)
    return {
        "count": len(samples),
        "sum": sum(samples),
        "min": min(samples) if samples else None,
        "max": max(samples) if samples else None,
        "mean": sum(samples) / len(samples) if samples else None,
        "p50": _sample_quantile(ordered, 0.5),
        "p99": _sample_quantile(ordered, 0.99),
    }


class MetricsRegistry:
    """Named home of every metric in one run.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: asking for
    an existing name returns the same object, asking with a conflicting
    type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)  # type: ignore

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data dump of every metric (used by the text exporter)."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: Dict[str, Any] = {"kind": metric.kind, "help": metric.help}
            if isinstance(metric, (Counter, Gauge)):
                entry["values"] = {
                    ",".join(f"{k}={v}" for k, v in key) or "-": value
                    for key, value in metric.items()}
            elif isinstance(metric, Histogram):
                entry["values"] = {
                    ",".join(f"{k}={v}" for k, v in key) or "-":
                        _histogram_entry(samples)
                    for key, samples in metric.items()}
            out[name] = entry
        return out
