"""Backlog readers over :meth:`EngineRuntime.iter_queues` for tests.

The engine's own consumers read backlogs from each tick's
:class:`~repro.engine.runtime.TickReport`; these helpers read the live
queues instead, which works between ticks and right after a mutation.
"""

from __future__ import annotations

from repro.engine.runtime import EngineRuntime


def input_backlog(
    runtime: EngineRuntime, stage_name: str, site: str | None = None
) -> float:
    """Events queued at a stage's input (optionally one site only); a
    source's generated events wait in its input queue too."""
    total = 0.0
    for table, key, queue in runtime.iter_queues():
        if table == "input" and key[0] == stage_name and site in (None, key[1]):
            total += queue.count
    return total


def net_backlog_for(
    runtime: EngineRuntime, dst_stage: str
) -> dict[tuple[str, str], float]:
    """Per (src_site, dst_site) WAN backlog feeding ``dst_stage``."""
    result: dict[tuple[str, str], float] = {}
    for table, key, queue in runtime.iter_queues():
        if table != "net" or key[1] != dst_stage or queue.count <= 0:
            continue
        link = key[2:]
        result[link] = result.get(link, 0.0) + queue.count
    return result
