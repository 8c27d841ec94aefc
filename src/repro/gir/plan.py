"""Logical plan: a DAG of GIR operators with traversal and rewrite helpers."""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Set

from repro.gir.operators import LogicalOperator, MatchPatternOp


class LogicalPlan:
    """Wrapper around the root operator of a GIR logical plan.

    The plan is structurally a tree (binary operators such as ``JOIN`` and
    ``UNION`` have two inputs); rules rewrite it bottom-up via
    :meth:`transform`.
    """

    def __init__(self, root: LogicalOperator):
        self.root = root

    # -- traversal ---------------------------------------------------------
    def nodes(self) -> Iterator[LogicalOperator]:
        """Post-order traversal of plan operators."""
        yield from self._post_order(self.root)

    def _post_order(self, node: LogicalOperator) -> Iterator[LogicalOperator]:
        for child in node.inputs:
            yield from self._post_order(child)
        yield node

    def operators_of_type(self, op_type) -> List[LogicalOperator]:
        return [node for node in self.nodes() if isinstance(node, op_type)]

    def patterns(self) -> List[MatchPatternOp]:
        """All MATCH_PATTERN leaves in the plan."""
        return self.operators_of_type(MatchPatternOp)

    def depth(self) -> int:
        def depth_of(node: LogicalOperator) -> int:
            if not node.inputs:
                return 1
            return 1 + max(depth_of(child) for child in node.inputs)

        return depth_of(self.root)

    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    # -- rewriting ------------------------------------------------------------
    def transform(self, fn: Callable[[LogicalOperator], LogicalOperator]) -> "LogicalPlan":
        """Bottom-up rewrite: children are rewritten before their parent.

        ``fn`` receives each (already-rewritten) node and returns either the
        same node or a replacement.  A new plan is returned; the original is
        untouched.
        """

        def rewrite(node: LogicalOperator) -> LogicalOperator:
            new_inputs = tuple(rewrite(child) for child in node.inputs)
            if new_inputs != node.inputs:
                node = node.with_inputs(new_inputs)
            return fn(node)

        return LogicalPlan(rewrite(self.root))

    def clone(self) -> "LogicalPlan":
        return self.transform(lambda node: node)

    # -- analysis ---------------------------------------------------------------
    def downstream_referenced_tags(self, target: LogicalOperator) -> Set[str]:
        """Tags referenced by operators *above* ``target`` in the plan.

        Used by ``FieldTrim`` to decide which pattern tags/properties are still
        needed after the pattern match.
        """
        referenced: Set[str] = set()
        found = False

        def visit(node: LogicalOperator) -> bool:
            nonlocal found
            if node is target:
                return True
            contains_target = False
            for child in node.inputs:
                if visit(child):
                    contains_target = True
            if contains_target:
                referenced.update(node.referenced_tags())
            return contains_target

        visit(self.root)
        return referenced

    # -- presentation --------------------------------------------------------------
    def explain(self) -> str:
        """Indented, human-readable rendering of the plan tree."""
        lines: List[str] = []

        def render(node: LogicalOperator, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.inputs:
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "LogicalPlan(size=%d, depth=%d)" % (self.size(), self.depth())
