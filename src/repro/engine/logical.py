"""Logical query plans.

A logical plan is a directed acyclic graph whose vertices are stream
operators and whose edges are data flows (Section 2.1).  The plan knows
nothing about parallelism or placement - that is the physical plan's job
(:mod:`repro.engine.physical`).

Plans carry *signatures* for their sub-plans so the re-planner can detect
common sub-plans between alternative plans (Section 4.3): a new plan may only
replace a running one if every stateful operator's sub-plan also occurs in
the new plan, because only then can the new instances restore the old state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import CycleError, PlanError
from .operators import OperatorSpec


@dataclass
class LogicalPlan:
    """An immutable-after-validation DAG of operators.

    Build with :class:`LogicalPlanBuilder` or :meth:`from_edges`; plans
    validate on construction and expose topological traversal, reachability
    and sub-plan signatures.
    """

    name: str
    operators: dict[str, OperatorSpec]
    edges: list[tuple[str, str]]
    _upstream: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _downstream: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _topo_order: list[str] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._validate_edges()
        self._upstream = {name: [] for name in self.operators}
        self._downstream = {name: [] for name in self.operators}
        for src, dst in self.edges:
            self._downstream[src].append(dst)
            self._upstream[dst].append(src)
        self._topo_order = self._topological_order()
        self._validate_roles()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        name: str,
        operators: Iterable[OperatorSpec],
        edges: Iterable[tuple[str, str]],
    ) -> "LogicalPlan":
        op_map: dict[str, OperatorSpec] = {}
        for op in operators:
            if op.name in op_map:
                raise PlanError(f"duplicate operator name: {op.name!r}")
            op_map[op.name] = op
        return cls(name=name, operators=op_map, edges=list(edges))

    def _validate_edges(self) -> None:
        seen: set[tuple[str, str]] = set()
        for src, dst in self.edges:
            if src not in self.operators:
                raise PlanError(f"edge references unknown operator {src!r}")
            if dst not in self.operators:
                raise PlanError(f"edge references unknown operator {dst!r}")
            if src == dst:
                raise PlanError(f"self-loop on operator {src!r}")
            if (src, dst) in seen:
                raise PlanError(f"duplicate edge {src!r} -> {dst!r}")
            seen.add((src, dst))

    def _topological_order(self) -> list[str]:
        in_degree = {name: len(self._upstream[name]) for name in self.operators}
        ready = sorted(name for name, deg in in_degree.items() if deg == 0)
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in sorted(self._downstream[node]):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(order) != len(self.operators):
            raise CycleError(f"plan {self.name!r} contains a cycle")
        return order

    def _validate_roles(self) -> None:
        for name, op in self.operators.items():
            ups, downs = self._upstream[name], self._downstream[name]
            if op.is_source and ups:
                raise PlanError(f"source {name!r} must not have inputs")
            if not op.is_source and not ups:
                raise PlanError(f"non-source {name!r} has no inputs")
            if op.is_sink and downs:
                raise PlanError(f"sink {name!r} must not have outputs")
            if not op.is_sink and not downs:
                raise PlanError(f"non-sink {name!r} has no outputs")
        if not any(op.is_source for op in self.operators.values()):
            raise PlanError(f"plan {self.name!r} has no sources")
        if not any(op.is_sink for op in self.operators.values()):
            raise PlanError(f"plan {self.name!r} has no sinks")

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #

    def topological(self) -> list[OperatorSpec]:
        return [self.operators[name] for name in self._topo_order]

    def upstream(self, name: str) -> list[OperatorSpec]:
        return [self.operators[u] for u in self._upstream[self._check(name)]]

    def downstream(self, name: str) -> list[OperatorSpec]:
        return [self.operators[d] for d in self._downstream[self._check(name)]]

    def sources(self) -> list[OperatorSpec]:
        return [op for op in self.topological() if op.is_source]

    def sinks(self) -> list[OperatorSpec]:
        return [op for op in self.topological() if op.is_sink]

    def stateful_operators(self) -> list[OperatorSpec]:
        return [op for op in self.topological() if op.stateful]

    def __contains__(self, name: str) -> bool:
        return name in self.operators

    def __iter__(self) -> Iterator[OperatorSpec]:
        return iter(self.topological())

    def _check(self, name: str) -> str:
        if name not in self.operators:
            raise PlanError(f"unknown operator {name!r} in plan {self.name!r}")
        return name

    # ------------------------------------------------------------------ #
    # Rate propagation and selectivity
    # ------------------------------------------------------------------ #

    def propagate_rates(self, source_rates: dict[str, float]) -> dict[str, float]:
        """Expected *output* rate of every operator given source output rates.

        This is the lambda-hat recursion of Section 3.3 applied to the plan
        structure: an operator's expected input is the sum of its upstreams'
        expected outputs, and its expected output is ``sigma`` times that.
        """
        rates: dict[str, float] = {}
        for op in self.topological():
            if op.is_source:
                rates[op.name] = float(source_rates.get(op.name, 0.0))
            else:
                inflow = sum(rates[u.name] for u in self.upstream(op.name))
                rates[op.name] = inflow * op.selectivity
        return rates

    def plan_selectivity(
        self, source_weights: dict[str, float] | None = None
    ) -> float:
        """Sink-output events per source event.

        Used to convert sink arrivals back into source-equivalents for the
        processing-ratio metric (Section 8.3).  When sources carry very
        different rates (YSB's ad streams vs its campaign trickle), pass
        ``source_weights`` (relative rates) so the conversion reflects the
        actual stream mix; unit weights are assumed otherwise.
        """
        weights = {
            op.name: (
                source_weights.get(op.name, 0.0)
                if source_weights is not None
                else 1.0
            )
            for op in self.sources()
        }
        total_weight = sum(weights.values())
        if total_weight <= 0:
            weights = {op.name: 1.0 for op in self.sources()}
            total_weight = float(len(weights))
        rates = self.propagate_rates(weights)
        total_sink = sum(rates[s.name] for s in self.sinks())
        return total_sink / total_weight

    # ------------------------------------------------------------------ #
    # Sub-plan signatures (Section 4.3 safety)
    # ------------------------------------------------------------------ #

    def subplan_signature(self, name: str) -> str:
        """A structural hash of the sub-plan rooted (downstream-wards) at
        ``name``: the operator itself plus everything upstream of it.

        Two operators in different plans with equal signatures compute the
        same function of the same sources, so state is transferable between
        them.  Pinned source sites participate in the signature because state
        semantics depend on which streams feed the operator.
        """
        self._check(name)
        memo: dict[str, str] = {}

        def sig(op_name: str) -> str:
            if op_name in memo:
                return memo[op_name]
            op = self.operators[op_name]
            upstream_sigs = sorted(sig(u.name) for u in self.upstream(op_name))
            payload = "|".join(
                [
                    op.kind.value,
                    f"{op.selectivity:.6g}",
                    f"{op.window_s:.6g}",
                    op.keyed_by,
                    op.pinned_site or "",
                    *upstream_sigs,
                ]
            )
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            memo[op_name] = digest
            return digest

        return sig(name)


def can_replace_preserving_state(
    current: LogicalPlan, candidate: LogicalPlan
) -> bool:
    """Section 4.3: is switching from ``current`` to ``candidate`` safe?

    A switch preserves results when every stateful sub-plan of the running
    plan also occurs in the candidate (the new instances can then fully
    recover the maintained state) and, symmetrically, the candidate
    introduces no stateful operator that would have to start from empty
    state mid-stream.

    The paper's relaxation: an operator that maintains "a short and finite
    state" bounded by a tumbling window can be reconfigured at the end of the
    window interval when its state is re-initialized anyway.  Windowed
    stateful operators are therefore exempt from the common-sub-plan
    requirement; the scheduler pays for the exemption by deferring the
    switch to the next window boundary.
    """

    def binding_signatures(plan: LogicalPlan) -> set[str]:
        sigs = set()
        for op in plan.stateful_operators():
            if op.window_s > 0:
                continue
            sigs.add(plan.subplan_signature(op.name))
        return sigs

    return binding_signatures(current) == binding_signatures(candidate)
