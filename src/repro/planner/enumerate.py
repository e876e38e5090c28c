"""Alternative-plan enumeration (Section 4.3).

Evaluating every combination of logical and physical plans is NP-hard, so
the Query Planner "only consider[s] the ordering of aggregation operators
since they are typically the ones that involve cross-site data transmission"
(Sections 4.3 and 8.1).  Two families of alternatives are enumerated:

* **join trees** - for a commutative multi-way join (Figure 5), every shape
  of binary join tree over the input branches.  Join operator names are
  canonical in the set of sources they cover (``join{A+B}``), so two plans
  that join the same subset share the operator name - exactly the
  common-sub-plan property state preservation needs.
* **aggregation groupings** - for a windowed aggregation over many
  geo-distributed branches, the choice of which branches pre-aggregate
  together before the final aggregation.  Groupings are supplied by the
  caller (typically region-based); partial-aggregate names are canonical in
  their member set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..engine.logical import LogicalPlan
from ..engine.operators import OperatorSpec, sink as make_sink
from ..errors import PlanError

#: A branch is a tiny sub-plan fragment feeding the join/aggregation: its
#: operators, internal edges, and the name of its output operator.
@dataclass(frozen=True)
class Branch:
    """One input branch (e.g. a source with chained filters)."""

    key: str
    operators: tuple[OperatorSpec, ...]
    edges: tuple[tuple[str, str], ...]
    output: str


def branch_from_ops(key: str, ops: Sequence[OperatorSpec]) -> Branch:
    """Build a linear branch from an operator chain (first feeds second...)."""
    if not ops:
        raise PlanError("branch needs at least one operator")
    edges = tuple(
        (ops[i].name, ops[i + 1].name) for i in range(len(ops) - 1)
    )
    return Branch(key=key, operators=tuple(ops), edges=edges, output=ops[-1].name)


# --------------------------------------------------------------------------- #
# Join trees
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class JoinTree:
    """A binary join tree over branch keys."""

    leaves: frozenset[str]
    left: "JoinTree | None" = None
    right: "JoinTree | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def canonical_name(self) -> str:
        return "join{" + "+".join(sorted(self.leaves)) + "}"

    def subtrees(self) -> list["JoinTree"]:
        """All internal nodes, children before parents."""
        if self.is_leaf:
            return []
        assert self.left is not None and self.right is not None
        return self.left.subtrees() + self.right.subtrees() + [self]


def enumerate_join_trees(keys: Sequence[str]) -> list[JoinTree]:
    """All unordered binary trees over ``keys`` (commutative joins).

    The count is the double factorial (2k-3)!!: 1 tree for 2 keys, 3 for 3,
    15 for 4.  Trees are deduplicated structurally (left/right order is
    irrelevant for a commutative join).
    """
    if len(keys) < 2:
        raise PlanError("a join needs at least 2 inputs")

    memo: dict[frozenset[str], list[JoinTree]] = {}

    def build(subset: frozenset[str]) -> list[JoinTree]:
        if subset in memo:
            return memo[subset]
        if len(subset) == 1:
            trees = [JoinTree(leaves=subset)]
        else:
            trees = []
            members = sorted(subset)
            anchor = members[0]
            rest = members[1:]
            # Every split where the anchor stays on the left avoids
            # double-counting mirrored trees.
            for mask in range(1 << len(rest)):
                left_set = {anchor}
                right_set = set()
                for i, key in enumerate(rest):
                    if mask & (1 << i):
                        left_set.add(key)
                    else:
                        right_set.add(key)
                if not right_set:
                    continue
                for left_tree in build(frozenset(left_set)):
                    for right_tree in build(frozenset(right_set)):
                        trees.append(
                            JoinTree(
                                leaves=subset,
                                left=left_tree,
                                right=right_tree,
                            )
                        )
        memo[subset] = trees
        return trees

    return build(frozenset(keys))


def join_tree_plans(
    plan_name: str,
    branches: Sequence[Branch],
    join_factory: Callable[[str, frozenset[str]], OperatorSpec],
    sink_op: OperatorSpec | None = None,
    *,
    max_variants: int = 32,
) -> list[LogicalPlan]:
    """Materialize logical plans for every join-tree shape.

    Args:
        plan_name: Base name; variants get ``#i`` suffixes.
        branches: The join inputs.
        join_factory: Builds the join operator for a node given its
            canonical name and covered branch keys (so callers control
            selectivity/state per node).
        sink_op: Sink appended at the root (a default sink when omitted).
        max_variants: Deterministic cap on the number of plans returned.
    """
    by_key = {b.key: b for b in branches}
    if len(by_key) != len(branches):
        raise PlanError("branch keys must be unique")
    trees = enumerate_join_trees([b.key for b in branches])
    plans: list[LogicalPlan] = []
    for i, tree in enumerate(trees[:max_variants]):
        operators: list[OperatorSpec] = []
        edges: list[tuple[str, str]] = []
        for branch in branches:
            operators.extend(branch.operators)
            edges.extend(branch.edges)

        def node_output(node: JoinTree) -> str:
            if node.is_leaf:
                (key,) = node.leaves
                return by_key[key].output
            return node.canonical_name()

        for node in tree.subtrees():
            join_op = join_factory(node.canonical_name(), node.leaves)
            if join_op.name != node.canonical_name():
                raise PlanError(
                    "join_factory must use the canonical name "
                    f"{node.canonical_name()!r}, got {join_op.name!r}"
                )
            operators.append(join_op)
            assert node.left is not None and node.right is not None
            edges.append((node_output(node.left), join_op.name))
            edges.append((node_output(node.right), join_op.name))

        final_sink = sink_op or make_sink(f"sink")
        operators.append(final_sink)
        edges.append((node_output(tree), final_sink.name))
        plans.append(
            LogicalPlan.from_edges(f"{plan_name}#{i}", operators, edges)
        )
    return plans


# --------------------------------------------------------------------------- #
# Aggregation groupings
# --------------------------------------------------------------------------- #


def aggregation_grouping_plans(
    plan_name: str,
    branches: Sequence[Branch],
    groupings: Sequence[Sequence[Sequence[str]]],
    partial_factory: Callable[[str, frozenset[str]], OperatorSpec],
    final_ops: Sequence[OperatorSpec],
    sink_op: OperatorSpec | None = None,
) -> list[LogicalPlan]:
    """Materialize one plan per grouping of branches into pre-aggregations.

    Args:
        plan_name: Base name; variants get ``#i`` suffixes.
        branches: Aggregation inputs.
        groupings: Each grouping is a partition of the branch keys; groups
            of size 1 feed the final aggregation directly, larger groups get
            a partial aggregation named canonically after their members.
        partial_factory: Builds the partial-aggregate operator for a group.
        final_ops: The final aggregation chain (first consumes the groups).
        sink_op: Sink appended after the final chain.

    Variants stay semantically equivalent: a pre-aggregated variant
    compresses the stream *before* the final operator, so the final
    operator's selectivity is rescaled such that every variant produces the
    same sink rate (exact when all branches carry equal rates, or when every
    branch is grouped with the same partial selectivity).
    """
    by_key = {b.key: b for b in branches}
    all_keys = set(by_key)
    plans: list[LogicalPlan] = []
    for i, grouping in enumerate(groupings):
        covered = [key for group in grouping for key in group]
        if sorted(covered) != sorted(all_keys):
            raise PlanError(
                f"grouping #{i} is not a partition of the branches: "
                f"{grouping!r}"
            )
        operators: list[OperatorSpec] = []
        edges: list[tuple[str, str]] = []
        for branch in branches:
            operators.extend(branch.operators)
            edges.extend(branch.edges)
        final_head = final_ops[0]
        partial_sels = {
            frozenset(g): partial_factory(
                "pre{" + "+".join(sorted(g)) + "}", frozenset(g)
            ).selectivity
            for g in grouping
            if len(g) > 1
        }
        mix = sum(
            len(g) * (partial_sels[frozenset(g)] if len(g) > 1 else 1.0)
            for g in grouping
        ) / len(all_keys)
        if mix > 0:
            final_head = replace(
                final_head, selectivity=final_ops[0].selectivity / mix
            )
        for group in grouping:
            if len(group) == 1:
                edges.append((by_key[group[0]].output, final_head.name))
                continue
            members = frozenset(group)
            name = "pre{" + "+".join(sorted(members)) + "}"
            partial = partial_factory(name, members)
            if partial.name != name:
                raise PlanError(
                    f"partial_factory must use the canonical name {name!r}, "
                    f"got {partial.name!r}"
                )
            operators.append(partial)
            for key in sorted(members):
                edges.append((by_key[key].output, partial.name))
            edges.append((partial.name, final_head.name))
        final_chain = [final_head, *final_ops[1:]]
        operators.extend(final_chain)
        for a, b in zip(final_chain, final_chain[1:]):
            edges.append((a.name, b.name))
        final_sink = sink_op or make_sink("sink")
        operators.append(final_sink)
        edges.append((final_chain[-1].name, final_sink.name))
        plans.append(
            LogicalPlan.from_edges(f"{plan_name}#{i}", operators, edges)
        )
    return plans
