"""The previous engine tick, kept as the oracle for the in-place tick.

Before :meth:`FluidQueue.pop_routed`, the engine tick popped every site row
into two column lists (``pop_scaled_into``) and then walked them once per
routing target, pushing each target its share with ``push_scaled``; each
stage's WAN flows then moved through ``FluidQueue.transfer_into``.  The
production tick now runs the single-target row pop and the WAN transfer
in place, in one stage loop.  The previous pieces are kept here verbatim:
:func:`push_scaled` and :func:`transfer_into` are the former queue methods
as functions, and :class:`ColumnRoutingRuntime` is an
:class:`EngineRuntime` with the previous ``tick``, whose stage execution
routes through the columns and whose flows move through
:func:`transfer_into` (looked up in this module at call time, so a test
can patch it to inject a fault inside the tick).  The tests run it next to
the production runtime and compare bit for bit.  It keeps the engine's
one input-queue table: a source's generated events wait in its input
queue at its pinned site.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.queues import FluidQueue
from repro.engine.runtime import (
    TICK_S, EngineRuntime, TickReport, running_sum,
)
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


def transfer_into(
    src: FluidQueue, dst: FluidQueue, max_events: float, extra_age_s: float
) -> float:
    """Move up to ``max_events`` events FIFO from ``src`` into ``dst``, aged
    by ``extra_age_s``; returns the events moved (the former
    ``FluidQueue.transfer_into``).

    Fuses ``push_parcels(dst, age_parcels(pop(src, max_events),
    extra_age_s))`` into one pass with no intermediate lists.  ``dst``
    must be a different queue.
    """
    if max_events < 0:
        raise SimulationError(f"cannot pop negative count {max_events}")
    if extra_age_s < 0:
        raise SimulationError(
            f"extra_age_s must be >= 0, got {extra_age_s}"
        )
    queued = src._count
    remaining = queued if queued < max_events else max_events
    moved = 0.0
    if remaining > 1e-12 and src._counts:
        if src._shared:
            src._materialize()
        if dst._shared:
            dst._materialize()
        q_counts = src._counts
        q_gens = src._gens
        d_counts = dst._counts
        d_gens = dst._gens
        eps = src._MERGE_EPS
        arrived = dst._count
        while remaining > 1e-12 and q_counts:
            c = q_counts.popleft()
            if c <= remaining + 1e-12:
                gen = q_gens.popleft() - extra_age_s
                remaining -= c
            else:
                q_counts.appendleft(c - remaining)
                c = remaining
                gen = q_gens[0] - extra_age_s
                remaining = 0.0
            queued -= c
            moved += c
            if d_gens and -eps < d_gens[-1] - gen < eps:
                d_counts[-1] += c
            else:
                d_counts.append(c)
                d_gens.append(gen)
            arrived += c
        src._count = queued
        dst._count = arrived
    if queued < 1e-12:
        src._count = 0.0
        if src._counts:
            src._drain_reset()
    return moved


class ColumnRoutingRuntime(EngineRuntime):
    """An engine whose rows route their output through column lists."""

    def tick(self, link_budget=None) -> TickReport:
        dt = TICK_S
        now = self._now_s + dt
        report = TickReport(t_s=now)

        if link_budget is None:
            link_budget = {}

        cache = self._plan_cache()
        topology = self._topology
        site_version = topology._site_states.value
        if cache.caps_site_version != site_version:
            cache.refresh_capacities(site_version)
        input_queue = self._input_queue
        window = self._window
        # New records, or a collect since the last tick started a new
        # window: hand the records the current window's cells.
        if window is not None and cache.sums_generation != window.generation:
            for ex in cache.topo:
                ex.bind_sums(window)
            cache.sums_generation = window.generation

        # 1. External generation.
        offered = 0.0
        offered_by_source = report.offered_by_source
        # Events generated uniformly across the tick: mean age dt/2.
        mean_gen_time = now - dt / 2
        rates = self._workload.generation_rates(cache.source_names, now)
        for src, rate in zip(cache.sources, rates):
            gen = rate * dt
            if gen > 0:
                queue = input_queue.get(src.gen_key)
                if queue is None:
                    queue = FluidQueue()
                    input_queue[src.gen_key] = queue
                queue.push(gen, mean_gen_time)
            offered += gen
            offered_by_source[src.name] = gen
            if src.gen_sum is not None:
                src.gen_sum.value += gen
        report.offered = offered

        # 2. Stage execution in topological order, transferring each stage's
        # outgoing flows immediately so downstream stages can consume them
        # within the same tick (sub-tick pipelining).
        slo = self._degrade_slo_s
        cutoff = (now - slo) if slo is not None else None
        stamp = self._flow_stamp
        if (
            stamp[0] != self._net_version
            or stamp[1] != topology._factors_version
        ):
            stamp = self._flow_stamp = (
                self._net_version, topology._factors_version
            )
        for ex in cache.topo:
            self._run_stage(ex, now, cutoff, report, window)
            # Routing may have created a flow queue, which moves the net
            # version.  A stage without outgoing flows skips the pass.
            if stamp[0] != self._net_version:
                stamp = self._flow_stamp = (self._net_version, stamp[1])
            if ex.flows_stamp is not stamp:
                self._build_flow_records(ex, stamp)
            if ex.flows:
                self._transfer_stage_flows(
                    ex, cutoff, link_budget, report, window
                )

        # Relay flows (scale-down) originate from stages to themselves and
        # were handled inside _transfer_stage_flows via the same net queues.

        # 3. Record end-of-tick backlogs.
        input_backlog = report.input_backlog
        for key, queue in input_queue.items():
            backlog = queue._count
            if backlog > 0:
                input_backlog[key] = backlog
        net_backlog = report.net_backlog
        for key, queue in self._net_queue.items():
            backlog = queue._count
            if backlog > 0:
                net_backlog[key] = backlog
        report.parallelism = cache.parallelism
        if window is not None:
            window.offered += offered
            window.sink_events += report.sink_events
            window.delay_weight += report.sink_delay_weighted_s

        self._now_s = now
        self.last_report = report
        return report

    def _transfer_stage_flows(
        self, ex, cutoff, link_budget, report, window
    ) -> None:
        """Move this stage's outgoing WAN queues within link budgets, along
        its current flow records (after the Degrade ``cutoff`` drop)."""
        event_bytes = ex.output_event_bytes
        input_queue = self._input_queue
        net_sent = report.net_sent
        if window is not None:
            flow_sums = ex.flow_sums
            if flow_sums is None:
                flow_sums = ex.flow_sums = [None] * len(ex.flows)
        # FCFS link sharing across flows, in the records' sorted order.
        for (
            queue, key, link, dst_stage, in_key, flow_no, full_budget,
            latency_s,
        ) in ex.flows:
            if not queue._count > 1e-12:
                continue
            if cutoff is not None:
                dropped = queue.drop_older_than(cutoff)
                if dropped > 0:
                    report.dropped_source_equiv += self._to_source_equiv(
                        dst_stage, dropped
                    )
                    report.dropped_raw_net[dst_stage] = (
                        report.dropped_raw_net.get(dst_stage, 0.0) + dropped
                    )
                if not queue._count > 1e-12:
                    continue
            budget = link_budget.get(link)
            if budget is None:
                budget = full_budget
                link_budget[link] = budget
            budget_events = budget / event_bytes
            if budget_events <= 0:
                continue
            dst_q = input_queue.get(in_key)
            fresh = dst_q is None
            if fresh:
                dst_q = FluidQueue()
            moved = transfer_into(queue, dst_q, budget_events, latency_s)
            if moved <= 0:
                continue
            if fresh:
                # A destination queue exists once events land in it.
                input_queue[in_key] = dst_q
            link_budget[link] = budget - moved * event_bytes
            # Each flow transfers once per tick (0.0 + moved == moved).
            net_sent[key] = moved
            if window is not None:
                cell = flow_sums[flow_no]
                if cell is None:
                    cell = flow_sums[flow_no] = running_sum(
                        window.net_in, (dst_stage, *link)
                    )
                cell.value += moved

    def _run_stage(self, ex, now, cutoff, report, window) -> None:
        table = self._input_queue
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
