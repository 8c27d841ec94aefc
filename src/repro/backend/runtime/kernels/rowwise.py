"""Per-row operator kernels: one semantic implementation per streamable operator.

Each kernel is a *factory*: called once per (operator, execution) it returns
a ``process(binding, sink)`` closure that handles one input row, so one-time
work (pure-projection detection, branch unpacking) is hoisted out of the
inner loop.  ``binding`` is a dict row in every engine.  Output goes to a
*sink*, the narrow emission interface each engine adapts to how it groups
rows:

* ``sink.emit(delta)`` -- the input row extended with ``delta``, a tuple of
  ``(tag, value)`` pairs (empty tuple = the row passes through unchanged);
* ``sink.emit_row(mapping)`` -- a brand-new row (scans, non-append projects).

Kernels charge the *semantic* work counters inline -- vertices scanned,
edges traversed, property-retrieval cells, simulated shuffles, path-frontier
intermediates, deadline checks -- exactly once per unit of work, so every
adapter observes identical counter totals on a full drain.  Output-level
charges (intermediate rows, produced cells) are the adapters' concern: per
``batch_size`` cut for the serial pipeline, per morsel for the dataflow steps.

The dataflow engine runs these same kernels inside its segments, shuffle
charges included; its exchanges only record the rows they physically route
(see :mod:`repro.backend.runtime.dataflow.steps`).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.backend.runtime.binding import ERef, PRef, VRef
from repro.backend.runtime.kernels.common import (
    edge_matches,
    retrieve_properties,
    vertex_matches,
)
from repro.gir.expressions import TagRef
from repro.gir.pattern import PathConstraint


def scan_vertex(op, ctx):
    """Probe one candidate vertex of a scan (``process(vid, sink)``)."""
    counters = ctx.counters

    def process(vid, sink):
        # ``tick`` (not a full check) keeps the rejected-probe path cheap
        # while bounding how many candidates a selective scan can burn
        # between deadline/cancellation checks to one kernel batch
        ctx.tick()
        counters.vertices_scanned += 1
        if vertex_matches(ctx, vid, op.constraint, op.predicates, op.tag):
            retrieve_properties(ctx, vid, op.columns)
            sink.emit_row({op.tag: VRef(vid)})

    return process


def expand_edge(op, ctx):
    counters = ctx.counters

    def process(row, sink):
        anchor = row.get(op.anchor_tag)
        if not isinstance(anchor, VRef):
            return
        adjacent = ctx.graph.adjacent_edges(anchor.id, op.direction, op.edge_constraint)
        counters.edges_traversed += len(adjacent)
        for eid, other in adjacent:
            if not vertex_matches(ctx, other, op.target_constraint,
                                  op.target_predicates, op.target_tag, row):
                continue
            if not edge_matches(ctx, eid, op.edge_predicates, op.edge_tag, row):
                continue
            retrieve_properties(ctx, other, op.target_columns)
            ctx.charge_shuffle_between(anchor.id, other)
            sink.emit(((op.edge_tag, ERef(eid)), (op.target_tag, VRef(other))))
        ctx.check_deadline()

    return process


def expand_into(op, ctx):
    counters = ctx.counters

    def process(row, sink):
        anchor = row.get(op.anchor_tag)
        target = row.get(op.target_tag)
        if not isinstance(anchor, VRef) or not isinstance(target, VRef):
            return
        adjacent = ctx.graph.adjacent_edges(anchor.id, op.direction, op.edge_constraint)
        counters.edges_traversed += len(adjacent)
        for eid, other in adjacent:
            if other != target.id:
                continue
            if not edge_matches(ctx, eid, op.edge_predicates, op.edge_tag, row):
                continue
            sink.emit(((op.edge_tag, ERef(eid)),))
        ctx.check_deadline()

    return process


def expand_intersect(op, ctx):
    counters = ctx.counters
    branches = op.branches

    def process(row, sink):
        candidate_sets: List[Dict[int, List[int]]] = []
        valid = True
        for branch in branches:
            anchor = row.get(branch.anchor_tag)
            if not isinstance(anchor, VRef):
                valid = False
                break
            adjacent = ctx.graph.adjacent_edges(anchor.id, branch.direction,
                                                branch.edge_constraint)
            counters.edges_traversed += len(adjacent)
            per_vertex: Dict[int, List[int]] = {}
            for eid, other in adjacent:
                if edge_matches(ctx, eid, branch.edge_predicates, branch.edge_tag, row):
                    per_vertex.setdefault(other, []).append(eid)
            candidate_sets.append(per_vertex)
        if not valid or not candidate_sets:
            return
        intersection = set(candidate_sets[0])
        for per_vertex in candidate_sets[1:]:
            intersection &= set(per_vertex)
        first_anchor = row.get(branches[0].anchor_tag)
        for target_vid in intersection:
            if not vertex_matches(ctx, target_vid, op.target_constraint,
                                  op.target_predicates, op.target_tag, row):
                continue
            retrieve_properties(ctx, target_vid, op.target_columns)
            edge_lists = [per_vertex[target_vid] for per_vertex in candidate_sets]
            target_binding = (op.target_tag, VRef(target_vid))
            for combination in itertools.product(*edge_lists):
                delta = (target_binding,) + tuple(
                    (branch.edge_tag, ERef(eid))
                    for branch, eid in zip(branches, combination))
                sink.emit(delta)
            if isinstance(first_anchor, VRef):
                ctx.charge_shuffle_between(first_anchor.id, target_vid)
        ctx.check_deadline()

    return process


def path_expand(op, ctx):
    counters = ctx.counters

    def process(row, sink):
        anchor = row.get(op.anchor_tag)
        if not isinstance(anchor, VRef):
            return
        bound_target = row.get(op.target_tag) if op.closes else None
        # frontier entries: (edge ids along the path, visited vertices, current vertex)
        frontier: List[Tuple[Tuple[int, ...], Tuple[int, ...], int]] = [
            ((), (anchor.id,), anchor.id)]
        for hop in range(1, op.max_hops + 1):
            next_frontier: List[Tuple[Tuple[int, ...], Tuple[int, ...], int]] = []
            for path_edges, visited, current in frontier:
                adjacent = ctx.graph.adjacent_edges(current, op.direction, op.edge_constraint)
                counters.edges_traversed += len(adjacent)
                for eid, other in adjacent:
                    if op.path_constraint is PathConstraint.SIMPLE and other in visited:
                        continue
                    if op.path_constraint is PathConstraint.TRAIL and eid in path_edges:
                        continue
                    next_frontier.append((path_edges + (eid,), visited + (other,), other))
            frontier = next_frontier
            ctx.charge_intermediate(len(frontier))
            if hop >= op.min_hops:
                for path_edges, visited, current in frontier:
                    if op.closes:
                        if isinstance(bound_target, VRef) and current == bound_target.id:
                            sink.emit(((op.path_tag, PRef(path_edges, current)),))
                    else:
                        if not vertex_matches(ctx, current, op.target_constraint,
                                              op.target_predicates, op.target_tag, row):
                            continue
                        retrieve_properties(ctx, current, op.target_columns)
                        ctx.charge_shuffle_between(anchor.id, current)
                        sink.emit(((op.path_tag, PRef(path_edges, current)),
                                   (op.target_tag, VRef(current))))
            if not frontier:
                break
        ctx.check_deadline()

    return process


def filter_rows(op, ctx):
    evaluate = ctx.evaluator.evaluate
    predicate = op.predicate

    def process(row, sink):
        if evaluate(predicate, row):
            sink.emit(())

    return process


def project_rows(op, ctx):
    evaluate = ctx.evaluator.evaluate
    items = op.items
    if not op.append and all(isinstance(item.expr, TagRef) for item in items):
        # pure column selection: an absent tag surfaces as a present None
        # cell, exactly like ``row.get``
        mapping = [(item.alias, item.expr.tag) for item in items]

        def process(row, sink):
            sink.emit_row({alias: row.get(tag) for alias, tag in mapping})

        return process
    if op.append:
        def process(row, sink):
            sink.emit(tuple((item.alias, evaluate(item.expr, row)) for item in items))

        return process

    def process(row, sink):
        sink.emit_row({item.alias: evaluate(item.expr, row) for item in items})

    return process


def all_different(op, ctx):
    tags = op.tags

    def process(row, sink):
        values = [row.get(tag) for tag in tags if row.get(tag) is not None]
        if len(values) == len(set(values)):
            sink.emit(())

    return process
