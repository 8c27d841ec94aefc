"""Factory for the optimizer configurations the experiments compare.

The paper compares several plan-producing pipelines:

* ``gopt``            -- the full GOpt stack (RBO + type inference + CBO with
  high-order statistics and the backend's own PhysicalSpec);
* ``gopt-neo-cost``   -- GOpt but costing vertex expansion with Neo4j's
  ExpandInto model while building GraphScope operators (Fig. 8(c));
* ``gopt-low-order``  -- GOpt restricted to low-order statistics (Fig. 8(d));
* ``neo4j``           -- a CypherPlanner-like baseline: greedy expand-only
  planning on low-order statistics, no type inference, ExpandInto operators;
* ``gs``              -- GraphScope's rule-based-only behaviour: heuristic
  rules but the user-written matching order;
* ``no-rbo`` / ``no-type-inference`` / ``no-cbo`` -- ablations that disable a
  single technique.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.property_graph import PropertyGraph
from repro.optimizer.baselines import CypherPlannerBaseline
from repro.optimizer.cardinality import GlogueQuery
from repro.optimizer.glogue import Glogue
from repro.optimizer.physical_spec import (
    BackendProfile,
    graphscope_with_neo4j_costs,
    neo4j_profile,
)
from repro.optimizer.planner import GOptimizer, OptimizerConfig


def build_optimizer(
    graph: PropertyGraph,
    flavor: str = "gopt",
    profile: Optional[BackendProfile] = None,
    glogue: Optional[Glogue] = None,
) -> GOptimizer:
    """Create one of the plan-producing pipelines compared in the experiments."""
    if glogue is None:
        glogue = Glogue.from_graph(graph)

    if flavor == "gopt":
        return GOptimizer.for_graph(graph, profile=profile, glogue=glogue)

    if flavor == "gopt-neo-cost":
        return GOptimizer.for_graph(graph, profile=graphscope_with_neo4j_costs(), glogue=glogue)

    if flavor == "gopt-low-order":
        config = OptimizerConfig(use_high_order_statistics=False)
        return GOptimizer.for_graph(graph, profile=profile, config=config, glogue=glogue)

    if flavor == "neo4j":
        low_order = GlogueQuery(glogue, use_high_order=False)
        baseline = CypherPlannerBaseline(low_order, neo4j_profile())
        config = OptimizerConfig(enable_type_inference=False)
        return GOptimizer.for_graph(graph, profile=neo4j_profile(), config=config,
                                    glogue=glogue, pattern_planner=baseline)

    if flavor == "gs":
        config = OptimizerConfig(enable_type_inference=False, enable_cbo=False)
        return GOptimizer.for_graph(graph, profile=profile, config=config, glogue=glogue)

    if flavor == "no-rbo":
        config = OptimizerConfig(enable_rbo=False)
        return GOptimizer.for_graph(graph, profile=profile, config=config, glogue=glogue)

    if flavor == "no-type-inference":
        config = OptimizerConfig(enable_type_inference=False)
        return GOptimizer.for_graph(graph, profile=profile, config=config, glogue=glogue)

    if flavor == "no-cbo":
        config = OptimizerConfig(enable_cbo=False)
        return GOptimizer.for_graph(graph, profile=profile, config=config, glogue=glogue)

    raise ValueError("unknown optimizer flavor %r" % (flavor,))
