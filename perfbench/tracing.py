"""Spans and counts recorded from outside the program, around calls into its modules.

A Tracer patches named functions and methods of the ternary_ecc modules with
wrappers that record a span per call. Spans are kept in memory: an id, the id
of the enclosing span (None at top level), the id of the benchmark operation
that caused it, the name, the phase ("setup" or a round number), and start and
end in seconds from perf_counter. Counts are added by the workloads at the same
boundaries. Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter

# Per-layer metric -> (span or count name, unit). The unit says how the value
# is derived: "s" is the summed self time per round, "us" and "ms" the self
# time per call, "count" the summed counts per round. Set-up spans and counts
# are added to the per-round value, so work done once in set-up shows in its
# layer's metric.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "search.graph_build_s": ("search.graph_build", "s"),
    "search.graph_vertices": ("search.graph_vertices", "count"),
    "search.graph_edges": ("search.graph_edges", "count"),
    "search.exact_clique_s": ("search.exact_clique", "s"),
    "search.binary_oracle_s": ("search.binary_oracle", "s"),
    "search.greedy_clique_s": ("search.greedy_clique", "s"),
    "search.clique_size": ("search.clique_size", "count"),
    "construct.build_code_s": ("construct.build_code", "s"),
    "construct.validate_s": ("construct.validate", "s"),
    "metric.min_dist_b_s": ("metric.min_dist_b", "s"),
    "channel.transmit_us": ("channel.transmit", "us"),
    "decode.da_us": ("decode.da", "us"),
    "decode.ml_us": ("decode.ml", "us"),
    "decode.distance_evals": ("decode.distance_evals", "count"),
    "decode.word_errors": ("decode.word_errors", "count"),
    "decode.undecodable": ("decode.undecodable", "count"),
    "codec.init_s": ("codec.init", "s"),
    "codec.encode_block_us": ("codec.encode_block", "us"),
    "codec.decode_block_us": ("codec.decode_block", "us"),
    "core.nearest_us": ("core.nearest", "us"),
    "core.erasure_decode_us": ("core.erasure_decode", "us"),
    "codec.blocks": ("codec.blocks", "count"),
    "codec.block_errors": ("codec.block_errors", "count"),
    "cli.interp_ms": ("cli.interp", "ms"),
    "cli.import_ms": ("cli.import", "ms"),
    "cli.pmax_ms": ("cli.pmax", "ms"),
    "cli.capacity_ms": ("cli.capacity", "ms"),
    "cli.bound_ms": ("cli.bound", "ms"),
    "cli.mindist_ms": ("cli.mindist", "ms"),
    "cli.verify_ms": ("cli.verify", "ms"),
}
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Tracer:
    """Span and count recorder; patches are installed only while tracing."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, str, float, float]] = []
        self.counts: list[tuple[str, str, int]] = []
        self.phase = "setup"
        self.op = 0
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    def target(self, owner: object, attr: str, name: str, counts=None) -> None:
        """Register owner.attr to be wrapped under span name; missing attributes are skipped.

        counts, if given, maps the call's return value to counts to record.
        """
        if getattr(owner, attr, None) is not None:
            self._targets.append((owner, attr, name, counts))

    def install(self) -> None:
        for owner, attr, name, counts in self._targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counts is not None:
                for key, value in counts(result).items():
                    self.count(key, value)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, self.op, name, self.phase, 0.0, 0.0))
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.op, name, self.phase, start, end)

    def count(self, name: str, value: int) -> None:
        self.counts.append((name, self.phase, value))

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS entry: set-up part plus the median over traced rounds."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        # (name, phase) -> [self seconds, calls]
        totals: dict[tuple[str, str], list[float]] = {}
        for span_id, _, _, name, phase, start, end in self.spans:
            entry = totals.setdefault((name, phase), [0.0, 0])
            entry[0] += end - start - child_time[span_id]
            entry[1] += 1
        for name, phase, value in self.counts:
            totals.setdefault((name, phase), [0.0, 0])[0] += value
        rounds = sorted({phase for _, phase in totals} - {"setup"})
        metrics = {}
        for metric, (name, kind) in LAYER_METRICS.items():
            setup_value, setup_calls = totals.get((name, "setup"), (0.0, 0))
            per_round = [totals.get((name, r), (0.0, 0)) for r in rounds] or [(0.0, 0)]
            if kind == "count":
                metrics[metric] = int(setup_value + statistics.median(v for v, _ in per_round))
            elif kind == "s":
                metrics[metric] = setup_value + statistics.median(v for v, _ in per_round)
            else:
                per_call = [v / n for v, n in per_round if n] or (
                    [setup_value / setup_calls] if setup_calls else [0.0]
                )
                metrics[metric] = statistics.median(per_call) * _SCALE[kind]
        return metrics

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "parent", "op", "name", "phase", "start_s", "end_s"],
            "spans": self.spans,
            "counts": self.counts,
        }
