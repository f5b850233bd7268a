"""Span tracing of the parrondo modules from outside the package.

`install` replaces the public functions of each module (and the private
helpers the per-layer metrics need) with wrappers that open a span on
entry and close it on exit.  Spans are kept in memory as
(id, parent id, name, start, end, self time) and written out once the
traced round is over; `layer_metrics` folds them into the benchmark's
per-layer figures.  A layer's self time is its span's duration minus the
durations of the spans it caused.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []        # closed spans, in closing order
        self.counts = defaultdict(float)
        self._stack = []       # open spans: [id, name, start, child time]
        self._absorbing = 0    # > 0 inside a span that keeps its callees' time
        self._next_id = 0

    def enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, parent[0] if parent else 0, name,
                           start, end, dur - child))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # --- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, count=None, absorb=False):
        """Span around every call; count(args, result) feeds the counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._absorbing:
                return fn(*args, **kwargs)
            self.enter(name)
            self._absorbing += absorb
            try:
                result = fn(*args, **kwargs)
            finally:
                self._absorbing -= absorb
                self.exit()
            if count is not None:
                count(args, result)
            return result
        return traced

    def wrap_generator(self, name, fn, count=None):
        """Span around each resumption of the generator fn returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.exit()
                if count is not None:
                    count(item)
                yield item
        return traced

    def wrap_counter(self, key, fn):
        """Count calls without a span (for cheap, frequent helpers)."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted


def install(tracer: Tracer) -> None:
    """Wrap the package's functions in place; the process stays traced."""
    from parrondo import classical, cli, cpmap, kspace, measured, series, walk
    from parrondo.gates import CoinSet

    counts = tracer.counts

    def add(key, value):
        counts[key] += value

    # cli: argument parsing and dispatch; coin construction is the gates layer
    cli.parse_config = tracer.wrap("cli.parse", cli.parse_config)
    cli.run = tracer.wrap("cli.run", cli.run,
                          count=lambda a, r: add("cli.runs", 1))
    cli._coins = tracer.wrap("gates.coinset", cli._coins)
    CoinSet.__post_init__ = tracer.wrap_counter("gates.coinsets",
                                                CoinSet.__post_init__)

    # series: building a CapitalSeries, writing CSVs (kspace's is written by
    # the CLI from series.format_float)
    series.CapitalSeries.__post_init__ = tracer.wrap(
        "series.build", series.CapitalSeries.__post_init__)
    series.CapitalSeries.write_csv = tracer.wrap(
        "series.write_csv", series.CapitalSeries.write_csv)
    cli.format_float = tracer.wrap("series.format", cli.format_float)

    # classical: the whole propagation (stepping and readout) is one span
    classical.propagate_distribution = tracer.wrap(
        "classical.propagate", classical.propagate_distribution)
    classical.distribution_steps = _counting_generator(
        classical.distribution_steps,
        lambda dist: add("classical.site_steps",
                         len(dist.probs) if dist.step else 0))

    # walk: W assembly, the four pieces of a step, the rest of step, the
    # moment readout
    walk.w_matrix = tracer.wrap("walk.w_build", walk.w_matrix)
    for piece in ("mod", "w", "shift", "mod_inv"):
        attr = f"{piece}_amplitudes"
        setattr(walk, attr, tracer.wrap(f"walk.{piece}", getattr(walk, attr)))
    walk.step_amplitudes = tracer.wrap("walk.step", walk.step_amplitudes)

    def walk_step_count(args, state):
        add("walk.steps", 1)
        add("walk.site_steps", state.amps.shape[-1])
    walk.step = tracer.wrap("walk.step", walk.step, count=walk_step_count)
    for attr in ("expected_capital", "second_moment", "position_distribution"):
        setattr(walk, attr, tracer.wrap("walk.readout", getattr(walk, attr)))

    # kspace: fiber blocks (their calls into walk count as kspace), the
    # per-step fiber product, the FFT reconstruction
    kspace._block_matrices = tracer.wrap(
        "kspace.block_build", kspace._block_matrices, absorb=True)
    kspace.propagate_steps = tracer.wrap_generator(
        "kspace.fiber_step", kspace.propagate_steps,
        count=lambda st: add("kspace.fiber_steps",
                             st.nus.shape[0] if st.step else 0))
    kspace.position_distribution = tracer.wrap(
        "kspace.reconstruct", kspace.position_distribution)

    # cpmap: the dense density step and the moment readout
    def cpmap_step_count(args, rho):
        n, size = rho.step, rho.blocks.shape[0]
        add("cpmap.steps", 1)
        add("cpmap.lightcone_blocks", min(2 * n + 1, size) ** 2 / size ** 2)
        counts["cpmap.state_bytes"] = max(counts["cpmap.state_bytes"],
                                          rho.blocks.nbytes)
    cpmap.step_density = tracer.wrap("cpmap.step", cpmap.step_density,
                                     count=cpmap_step_count)
    for attr in ("expected_capital_density", "second_moment_density"):
        setattr(cpmap, attr, tracer.wrap("cpmap.readout", getattr(cpmap, attr)))

    # measured: one span per trajectory, and the averaging around them
    def sample_count(args, path):
        add("measured.sample_steps", len(path) - 1)
    measured.run_d_measured = tracer.wrap(
        "measured.run_d", measured.run_d_measured, count=sample_count)
    measured.run_dc_measured = tracer.wrap(
        "measured.run_dc", measured.run_dc_measured, count=sample_count)
    measured.average_trajectories = tracer.wrap(
        "measured.average", measured.average_trajectories)


def _counting_generator(fn, count):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        for item in fn(*args, **kwargs):
            count(item)
            yield item
    return counted


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced round: name -> (value, unit)."""
    self_s = defaultdict(float)
    for span in tracer.spans:
        self_s[span[2]] += span[5]

    def t(*names):
        return sum(self_s[name] for name in names)
    c = tracer.counts
    walk_steps = c["walk.steps"]
    cpmap_steps = c["cpmap.steps"]
    # a walk step has four pieces; each reads and writes the whole
    # (d, c, o, x) array of 8 complex128 amplitudes per site
    walk_bytes = 4 * 2 * 8 * 16 * c["walk.site_steps"]
    return {
        "cli.parse_s": (t("cli.parse"), "s"),
        "cli.runs": (c["cli.runs"], "count"),
        "gates.coinset_s": (t("gates.coinset"), "s"),
        "gates.coinsets": (c["gates.coinsets"], "count"),
        "series.build_s": (t("series.build"), "s"),
        "series.write_csv_s": (t("series.write_csv", "series.format"), "s"),
        "series.csv_bytes": (c["series.csv_bytes"], "B"),
        "classical.step_s": (t("classical.propagate"), "s"),
        "classical.site_steps": (c["classical.site_steps"], "count"),
        "walk.mod_s": (t("walk.mod"), "s"),
        "walk.w_build_s": (t("walk.w_build"), "s"),
        "walk.w_s": (t("walk.w"), "s"),
        "walk.shift_s": (t("walk.shift"), "s"),
        "walk.mod_inv_s": (t("walk.mod_inv"), "s"),
        "walk.step_overhead_s": (t("walk.step"), "s"),
        "walk.readout_s": (t("walk.readout"), "s"),
        "walk.site_steps": (c["walk.site_steps"], "count"),
        "walk.bytes_per_step": (walk_bytes / walk_steps if walk_steps else 0.0,
                                "B"),
        "kspace.block_build_s": (t("kspace.block_build"), "s"),
        "kspace.fiber_step_s": (t("kspace.fiber_step"), "s"),
        "kspace.reconstruct_s": (t("kspace.reconstruct"), "s"),
        "kspace.fiber_steps": (c["kspace.fiber_steps"], "count"),
        "cpmap.step_s": (t("cpmap.step"), "s"),
        "cpmap.readout_s": (t("cpmap.readout"), "s"),
        "cpmap.state_bytes": (c["cpmap.state_bytes"], "B"),
        "cpmap.lightcone_fill": (c["cpmap.lightcone_blocks"] / cpmap_steps
                                 if cpmap_steps else 0.0, "ratio"),
        "measured.run_d_s": (t("measured.run_d"), "s"),
        "measured.run_dc_s": (t("measured.run_dc"), "s"),
        "measured.average_s": (t("measured.average"), "s"),
        "measured.sample_steps": (c["measured.sample_steps"], "count"),
    }
