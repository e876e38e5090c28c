"""The column routing path, kept as the oracle for queue-to-queue routing.

Before :meth:`FluidQueue.pop_routed`, the engine tick popped every site row
into two column lists (``pop_scaled_into``) and then walked them once per
routing target, pushing each target its share with ``push_scaled``.  Both
pieces are kept here verbatim: :func:`push_scaled` is the former queue
method as a function, and :class:`ColumnRoutingRuntime` is an
:class:`EngineRuntime` whose stage execution routes through the columns.
The tests run it next to the production runtime and compare bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.queues import FluidQueue
from repro.engine.runtime import EngineRuntime, running_sum
from repro.errors import SimulationError


def push_scaled(
    queue: FluidQueue,
    counts: Sequence[float],
    gens: Sequence[float],
    factor: float,
) -> float:
    """Push the parcels ``(counts, gens)`` into ``queue`` scaled by
    ``factor``; returns the scaled total (the former
    ``FluidQueue.push_scaled``)."""
    if factor < 0:
        raise SimulationError(f"scale factor must be >= 0, got {factor}")
    if factor == 0 or not counts:
        return 0.0
    if queue._shared:
        queue._materialize()
    q_counts = queue._counts
    q_gens = queue._gens
    eps = queue._MERGE_EPS
    queued = queue._count
    total = 0.0
    for c, g in zip(counts, gens):
        scaled = c * factor
        total += scaled
        if scaled == 0.0:
            continue
        if q_gens and -eps < q_gens[-1] - g < eps:
            q_counts[-1] += scaled
        else:
            q_counts.append(scaled)
            q_gens.append(g)
        queued += scaled
    queue._count = queued
    return total


class ColumnRoutingRuntime(EngineRuntime):
    """An engine whose rows route their output through column lists."""

    def _run_stage(self, ex, now, cutoff, report, window) -> None:
        table = self._gen_queue if ex.is_source else self._input_queue
        name = ex.name
        sel = ex.selectivity
        suspended = self._now_s < self._suspended_until.get(name, 0.0)
        row_caps = ex.row_caps
        capacity_sums = ex.capacity_sums
        routes = ex.routes
        if ex.routes_version != self._net_version:
            routes.clear()
        stage_processed = 0.0
        stage_emitted = 0.0
        had_output = False
        for site, _, _, site_key, row_no in ex.site_rows:
            queue = table.get(site_key)
            if queue is None:
                queue = FluidQueue()
                table[site_key] = queue
            if cutoff is not None:
                dropped = queue.drop_older_than(cutoff)
                if dropped > 0:
                    report.dropped_source_equiv += self._to_source_equiv(
                        name, dropped
                    )
                    report.dropped_raw_input[name] = (
                        report.dropped_raw_input.get(name, 0.0) + dropped
                    )
            capacity = 0.0 if suspended else row_caps[row_no]
            counts: list[float] = []
            gens: list[float] = []
            processed, emitted = queue.pop_scaled_into(
                capacity, sel, counts, gens
            )
            if capacity_sums is not None:
                capacity_sums[row_no].value += capacity
            if processed <= 0:
                continue
            stage_processed += processed

            if ex.is_sink:
                delay = 0.0
                for c, g in zip(counts, gens):
                    delay += c * (now - g)
                report.sink_events += emitted
                report.sink_delay_weighted_s += delay
                continue
            had_output = True
            stage_emitted += emitted
            if sel != 0.0:
                rows = routes.get(site)
                if rows is None:
                    rows = routes[site] = self._route_targets(ex, site)
                self._push_routed(rows, counts, gens)
        ex.routes_version = self._net_version
        if stage_processed > 0.0:
            report.processed[name] = stage_processed
            if window is not None:
                cell = ex.processed_sum
                if cell is None:
                    cell = ex.processed_sum = running_sum(
                        window.processed, name
                    )
                cell.value += stage_processed
        if had_output:
            report.emitted[name] = stage_emitted

    def _route_targets(self, ex, src_site: str) -> list[tuple]:
        """Rows ``(fraction, local input key, flow queue)``."""
        rows: list[tuple] = []
        for down in ex.downstream:
            for dst_site, fraction, in_key in down.shares:
                if dst_site == src_site:
                    rows.append((fraction, in_key, None))
                else:
                    flow = self._net_q((ex.name, down.name, src_site, dst_site))
                    rows.append((fraction, None, flow))
        return rows

    def _push_routed(self, rows, counts, gens) -> None:
        input_queue = self._input_queue
        for fraction, in_key, flow in rows:
            if flow is not None:
                push_scaled(flow, counts, gens, fraction)
            else:
                queue = input_queue.get(in_key)
                if queue is None:
                    queue = FluidQueue()
                    input_queue[in_key] = queue
                push_scaled(queue, counts, gens, fraction)
