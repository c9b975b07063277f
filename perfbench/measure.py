"""Host-speed probe, host-scaled timing and per-layer self time of spans.

The benchmark host's speed drifts: the same compile measured 34 to 53 ms
in six runs while process CPU time equalled wall time, so the slowdown
comes from the host, not from the OS descheduling the process.  Every
timing the benchmark reports is therefore expressed at *reference host
speed*: a fixed pure-Python probe runs interleaved with the work, and a
duration is divided by how far the probe's nearby timings drift from
``PROBE_REF_S``.

The probe imports nothing from ``repro`` and allocates no GC-tracked
objects (ints only, plus lookups into tables built once at import), so
nothing the program does to the heap or the collector changes its cost.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

#: One :func:`spin` on the reference host (2-vCPU Intel Xeon at 2.0 GHz,
#: CPython 3.11).  Fixed: changing it rescales every reported timing.
PROBE_REF_S = 0.0020

#: Probes on each side of a duration that set its host factor.
_WINDOW = 4

_LOOP = 4000
_TABLE = tuple((i * 7919) % 1009 for i in range(1024))
_NAMES = tuple(f"k{i}" for i in range(256))
_INDEX = {name: i for i, name in enumerate(_NAMES)}


def spin() -> int:
    """The fixed probe: integer arithmetic plus tuple and dict lookups."""
    x = 12345
    table, names, index = _TABLE, _NAMES, _INDEX
    i = 0
    while i < _LOOP:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        x ^= table[x & 1023] + index[names[x & 255]]
        i += 1
    return x


class HostMeter:
    """Probe samples over a run, and durations scaled by them.

    Samples must be taken by one thread, in time order.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self.probe_s = 0.0

    def probe(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            spin()
            took = time.perf_counter() - start
            self.times.append(start + took / 2)
            self.durations.append(took)
            self.probe_s += took

    def factor(self, at: float | None = None) -> float:
        """Host slowdown against the reference: near ``at``, or over the run."""
        if not self.durations:
            raise RuntimeError("no probe samples taken")
        if at is None:
            window = self.durations
        else:
            i = bisect.bisect_left(self.times, at)
            window = self.durations[max(0, i - _WINDOW):i + _WINDOW]
        return statistics.median(window) / PROBE_REF_S

    def scaled(self, start: float, took: float) -> float:
        """``took`` seconds starting at ``start``, at reference host speed."""
        return took / self.factor(start + took / 2)


def percentile(values: list[float], q: int) -> float:
    """Linearly interpolated percentile (``q`` in 1..99) of a list."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_seconds(spans, meter: HostMeter, layer_of=lambda name: name
                 ) -> dict[str, float]:
    """Per layer: summed self time (duration minus child spans) of finished
    tracer spans, each span scaled to reference host speed at its midpoint.

    ``spans`` are :class:`repro.obs.tracer.Span`-like records (``span_id``,
    ``parent_id``, ``name``, ``start``, ``end``); ``layer_of`` maps a span
    name to the layer it is charged to.
    """
    children: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] = (children.get(span.parent_id, 0.0)
                                        + span.end - span.start)
    totals: dict[str, float] = {}
    for span in spans:
        own = (span.end - span.start) - children.get(span.span_id, 0.0)
        layer = layer_of(span.name)
        totals[layer] = (totals.get(layer, 0.0)
                         + own / meter.factor((span.start + span.end) / 2))
    return totals


def dump_spans(path, tracers) -> None:
    """Every tracer's spans as JSONL; ``tracer`` numbers the recorder (one
    per client thread on serve_rw), since span ids restart in each."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, tracer in enumerate(tracers):
            for record in tracer.to_dicts():
                record["tracer"] = number
                handle.write(json.dumps(record, default=repr) + "\n")
