"""Span tracing from outside the program, and the per-layer metrics built
from the spans.

The tracer replaces the public functions at each module boundary with
wrappers that record one span per call: its id, the id of the span that
called it, the id of its root span (one sweep point), the layer
function, a work count and the start and end times.  Spans stay in
memory until the benchmark writes them out.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from dwtcdma import fec, link, sim
from dwtcdma.wavelet import WaveletSpec, filter_bank


def _size(args) -> int:
    return int(np.size(args[0]))


def _blocks(args) -> int:
    return int(np.prod(np.shape(args[0])[:-1], dtype=np.int64))


# (module, attribute, span name, work count of one call).  A function is
# wrapped where its caller looks it up, and named after the layer that
# owns it.
TRACED = (
    (sim, "run_point", "sim.run_point", None),
    (sim, "build_matrix", "spreading.build_matrix", None),
    (sim, "run_link_once", "link.run_link_once", _size),         # info bits in
    (fec, "encode_stream", "fec.encode_stream", _size),          # info bits in
    (fec, "decode_stream", "fec.decode_stream", lambda a: int(a[1])),  # info bits out
    (link, "modulate", "modem.modulate", _size),                 # bits in
    (link, "demodulate", "modem.demodulate", _size),             # symbols in
    (link, "dwt_inverse", "wavelet.dwt_inverse", _blocks),       # blocks
    (link, "dwt_forward", "wavelet.dwt_forward", _blocks),       # blocks
    (link, "apply_awgn", "link.apply_awgn", _size),              # samples
)

SPAN_FIELDS = ("id", "parent", "root", "name", "work", "start_ns", "end_ns")


class Tracer:
    """Records a span around every call of the functions in TRACED."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            root = self._stack[0] if self._stack else span_id
            self._stack.append(span_id)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                count = work(args) if work else 1
                self.spans.append((span_id, parent, root, name, count, start, end))
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TRACED]
        try:
            for (module, attr, name, work), (_, _, fn) in zip(TRACED, originals):
                setattr(module, attr, self._wrap(name, fn, work))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, spans_per_rep) -> None:
    with open(path, "w") as handle:
        for rep, spans in spans_per_rep:
            for span in spans:
                handle.write(json.dumps({"rep": rep, **dict(zip(SPAN_FIELDS, span))}) + "\n")


def span_totals(spans) -> dict[str, dict]:
    """Per span name: calls, summed work, summed duration and self time (s)."""
    child_ns: dict[int, int] = defaultdict(int)
    for span_id, parent, _, _, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "work": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, _, _, name, work, start, end in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["work"] += work
        entry["total_s"] += (end - start) * 1e-9
        entry["self_s"] += (end - start - child_ns[span_id]) * 1e-9
    return totals


def point_durations(spans) -> list[float]:
    return [(end - start) * 1e-9 for _, _, _, name, _, start, end in spans
            if name == "sim.run_point"]


# Computed kernel counts.  Flop: 2 per real multiply-add, so 4 per tap
# applied to one complex sample.  Bytes: complex128 arrays each read or
# written once per stage, from array sizes alone (no caches, no
# temporaries), so they are computed, not measured.
COMPLEX_BYTES = 16
# Noise stage per sample: read the signal, write and read two real
# draws, write the output.
NOISE_BYTES_PER_SAMPLE = COMPLEX_BYTES + 2 * (8 + 8) + COMPLEX_BYTES


def _level_lengths(block_size: int, levels: int) -> list[int]:
    return [block_size >> level for level in range(levels)]


def wavelet_flop_per_block(family: str, block_size: int, levels: int) -> int:
    """Flop of one inverse plus one forward transform of one block."""
    bank = filter_bank(family)
    taps = sum(len(f.taps) for f in (bank.analysis_lowpass, bank.analysis_highpass,
                                     bank.synthesis_lowpass, bank.synthesis_highpass))
    return sum(4 * (n // 2) * taps for n in _level_lengths(block_size, levels))


def wavelet_bytes_per_block(block_size: int, levels: int) -> int:
    """Bytes of one inverse plus one forward transform of one block:
    each level reads n samples and writes n in each direction."""
    return 2 * sum(2 * n * COMPLEX_BYTES for n in _level_lengths(block_size, levels))


def layer_metrics(config: sim.SimConfig, records, traced_spans: list[list],
                  traced_wall_s: float, untraced_wall_s: float, sweep_s: float,
                  write_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) of one workload.

    Times and counts are per sweep, as the median over the traced
    repetitions; run_point percentiles pool the points of every traced
    repetition.
    """
    per_rep = [span_totals(spans) for spans in traced_spans]

    def med(name, key):
        # Counts repeat exactly, so take an observed value for them.
        pick = statistics.median_low if key in ("calls", "work") else statistics.median
        return pick(t[name][key] if name in t else 0 for t in per_rep)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    block_size = WaveletSpec().block_size
    calls = med("link.run_link_once", "calls")
    blocks = med("wavelet.dwt_inverse", "work")
    wavelet_s = med("wavelet.dwt_inverse", "self_s") + med("wavelet.dwt_forward", "self_s")
    durations = sorted(d for spans in traced_spans for d in point_durations(spans))
    p50, p90 = statistics.quantiles(durations, n=10)[4::4]

    bits = sum(r.bits_sent for r in records)
    censored = [r for r in records if r.bit_errors < config.min_bit_errors]
    overshoot = sum(max(0, r.bits_sent - config.max_info_bits) for r in records)

    metrics = {
        "wavelet.dwt_inverse.self_s": (med("wavelet.dwt_inverse", "self_s"), "s"),
        "wavelet.dwt_forward.self_s": (med("wavelet.dwt_forward", "self_s"), "s"),
        "wavelet.blocks": (blocks, "count"),
        "wavelet.blocks_per_s": (rate(blocks, wavelet_s), "1/s"),
        "wavelet.bytes_per_chunk": (
            rate(blocks, calls) * wavelet_bytes_per_block(block_size, config.levels), "B"),
        "link.run_link_once.self_s": (med("link.run_link_once", "self_s"), "s"),
        "link.run_link_once.calls": (calls, "count"),
        "link.run_link_once.mbit_per_s": (
            rate(med("link.run_link_once", "work"), med("link.run_link_once", "total_s")) / 1e6,
            "Mbit/s"),
        "link.apply_awgn.self_s": (med("link.apply_awgn", "self_s"), "s"),
        "link.apply_awgn.bytes_per_chunk": (
            rate(med("link.apply_awgn", "work"), calls) * NOISE_BYTES_PER_SAMPLE, "B"),
        "fec.encode_stream.self_s": (med("fec.encode_stream", "self_s"), "s"),
        "fec.decode_stream.self_s": (med("fec.decode_stream", "self_s"), "s"),
        "fec.decode_stream.calls": (med("fec.decode_stream", "calls"), "count"),
        "fec.decode_stream.mbit_per_s": (
            rate(med("fec.decode_stream", "work"), med("fec.decode_stream", "self_s")) / 1e6,
            "Mbit/s"),
        "modem.modulate.self_s": (med("modem.modulate", "self_s"), "s"),
        "modem.demodulate.self_s": (med("modem.demodulate", "self_s"), "s"),
        "modem.modulate.calls": (med("modem.modulate", "calls"), "count"),
        "spreading.build_matrix.calls": (med("spreading.build_matrix", "calls"), "count"),
        "spreading.build_matrix.self_s": (med("spreading.build_matrix", "self_s"), "s"),
        "sim.run_point.self_s": (med("sim.run_point", "self_s"), "s"),
        "sim.run_point.p50_s": (p50, "s"),
        "sim.run_point.p90_s": (p90, "s"),
        "sim.bits_simulated": (bits, "count"),
        "sim.censored_points": (len(censored), "count"),
        "sim.censored_bit_share": (rate(sum(r.bits_sent for r in censored), bits), "share"),
        "sim.budget_overshoot_share": (rate(overshoot, bits), "share"),
        "sim.info_mbit_per_s": (rate(bits, sweep_s) / 1e6, "Mbit/s"),
        "sim.write_outputs_s": (write_s, "s"),
        "trace.overhead_share": (traced_wall_s / untraced_wall_s - 1.0, "share"),
    }
    for family in ("haar", "db2", "bior22"):
        metrics[f"wavelet.flop_per_block.{family}"] = (
            wavelet_flop_per_block(family, block_size, config.levels), "flop")
    return metrics


def cell_throughput(spans_per_rep: list[list], config: sim.SimConfig) -> dict[str, float]:
    """run_link_once Mbit/s for each (scheme, wavelet, coded) cell of the
    grid, from the traced repetitions (median over repetitions)."""
    points = config.points()
    cells = sorted({(p.scheme, p.wavelet, p.coded) for p in points})
    per_cell: dict[tuple, list[float]] = {cell: [] for cell in cells}
    for spans in spans_per_rep:
        # Roots (run_point spans) come in sweep order, one per point.
        roots = sorted((s[0] for s in spans if s[3] == "sim.run_point"))
        cell_of_root = {root: (p.scheme, p.wavelet, p.coded) for root, p in zip(roots, points)}
        work: dict[tuple, int] = defaultdict(int)
        busy: dict[tuple, int] = defaultdict(int)
        for _, _, root, name, count, start, end in spans:
            if name == "link.run_link_once" and root in cell_of_root:
                work[cell_of_root[root]] += count
                busy[cell_of_root[root]] += end - start
        for cell in cells:
            if busy[cell]:
                per_cell[cell].append(work[cell] / (busy[cell] * 1e-9) / 1e6)
    return {f"{scheme}-{wavelet}-{'coded' if coded else 'uncoded'}": statistics.median(values)
            for (scheme, wavelet, coded), values in per_cell.items() if values}
