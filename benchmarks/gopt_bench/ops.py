"""Workloads of gopt_bench: what one operation is and in which order they run.

An :class:`Op` is one request a user of the system would issue.  Every
workload exposes three op lists:

* ``check_ops``  -- a fixed, seed-independent list whose result rows are
  compared against the digests checked in under ``expected/`` and whose mean
  ``ExecutionMetrics.total_work`` is the ``work_per_op`` metric;
* ``cycle(seed)`` -- the seeded closed-loop sequence the timed window walks
  (``--seed`` drives parameter values and op order, never the dataset);
* ``trace_ops``  -- the fixed list the traced pass replays layer by layer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.workloads import bi_queries, ic_queries, qc_queries, qr_queries, qt_queries

#: closed-loop client threads/connections of the one multi-client workload
MAX_CLIENT_THREADS = 4

#: LDBC scale of the analytic workloads (``--quick`` swaps in the small one)
FULL_SCALE = "G100"
QUICK_SCALE = "G30"


@dataclass(frozen=True)
class Op:
    """One operation: a query text (or plan factory) and how it is consumed."""

    kind: str                                   # template / query name: the latency bucket
    language: str = "cypher"
    text: Optional[str] = None
    parameters: Optional[Dict[str, object]] = None
    #: run = materialize all rows; compile = parse + optimize only;
    #: drain / early = server-held cursor fully drained / closed after 64 rows
    mode: str = "run"
    plan_factory: Optional[Callable] = None     # queries with no text form (QR7, QR8)

    @functools.cached_property
    def key(self) -> str:
        """Stable identifier of (kind, text, parameter values, mode) for digests;
        editing a query's text orphans its digest until the next ``--bless``."""
        parameters = json.dumps(self.parameters or {}, sort_keys=True)
        text = hashlib.sha256((self.text or "").encode("utf-8")).hexdigest()[:8]
        return "%s|%s|%s|%s" % (self.kind, text, parameters, self.mode)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str          # "social" or "ldbc"
    transport: str      # "http" (server in a child process) or "inproc"
    plan_cache: bool    # False: GraphService(plan_cache_size=None)
    #: the window ends on a cycle boundary, so every run times the same op mix
    #: (needed where single ops are a large share of the window)
    whole_cycles: bool
    multi_client: bool = False
    #: a whole-cycle window also runs until it has timed this many ops, so
    #: that at least ten lie beyond its p95
    min_samples: int = 0


# -- serve_*_mix: the run_serving_bench.py templates plus one Gremlin 1-hop -------

SOCIAL_PERSONS = 300
POINT = "MATCH (p:Person) WHERE p.id = $x RETURN p.name AS name"
HOP = ("MATCH (p:Person)-[:Knows]->(f:Person) WHERE p.id = $x "
       "RETURN f.name AS friend")
AGG = ("MATCH (p:Person)-[:Purchases]->(pr:Product) "
       "RETURN pr.name AS product, count(p) AS buyers")
GREMLIN_HOP = "g.V().hasLabel('Person').has('id', %d).out('Knows').values('name')"

#: Gremlin has no $param slots, so every distinct id is a distinct plan-cache
#: key; a small seeded pool keeps the 128-entry cache warm (hit rate ~1)
GREMLIN_POOL_SIZE = 16


def _point(x: int) -> Op:
    return Op("point", "cypher", POINT, {"x": x})


def _hop(x: int) -> Op:
    return Op("hop", "cypher", HOP, {"x": x})


def _gremlin_hop(x: int) -> Op:
    return Op("gremlin_hop", "gremlin", GREMLIN_HOP % x)


_AGG_OP = Op("agg", "cypher", AGG)


def serve_check_ops() -> List[Op]:
    fixed_ids = (0, 7, 42, 299)
    return ([_point(x) for x in fixed_ids] + [_hop(x) for x in fixed_ids]
            + [_AGG_OP] + [_gremlin_hop(x) for x in (7, 42)])


def serve_cycle(seed: int, blocks: int = 256) -> List[Op]:
    """point x4, 1-hop x2, group-count x1, Gremlin 1-hop x1, shuffled per block."""
    rng = random.Random(seed)
    pool = rng.sample(range(SOCIAL_PERSONS), GREMLIN_POOL_SIZE)
    ops: List[Op] = []
    for _ in range(blocks):
        block = ([_point(rng.randrange(SOCIAL_PERSONS)) for _ in range(4)]
                 + [_hop(rng.randrange(SOCIAL_PERSONS)) for _ in range(2)]
                 + [_AGG_OP, _gremlin_hop(rng.choice(pool))])
        rng.shuffle(block)
        ops.extend(block)
    return ops


# -- analytic_exec / cold_plan: the paper's query sets --------------------------------

#: CBO search on these two takes seconds (QC4a ~4 s, QC4b ~7 s on the
#: reference box); only cold_plan runs QC4a, and only its Cypher form -- the
#: Gremlin form searches the same pattern and would add 4 s per cycle
_SLOW_TO_PLAN = ("QC4a", "QC4b")

#: >=100 ms of kernel time each on G100 (QR7 and QR8 are also the two with no
#: text form); left out of the traced pass, which executes every op several
#: times, so that it fits the run-time budget
HEAVY_TO_EXECUTE = ("QR7", "QR8", "QT2", "QT3", "QC3a", "QC3a/gremlin", "QC3b")


def analytic_ops(mode: str = "run", with_qc4a: bool = False) -> List[Op]:
    ops: List[Op] = []
    for query_set in (ic_queries(), bi_queries(), qr_queries(), qt_queries(),
                      qc_queries()):
        for query in query_set:
            if query.name in _SLOW_TO_PLAN and not (
                    with_qc4a and query.name == "QC4a"):
                continue
            parameters = query.parameters or None
            if query.plan_factory is not None:
                ops.append(Op(query.name, "cypher", None, parameters, mode,
                              plan_factory=query.plan_factory))
            else:
                ops.append(Op(query.name, "cypher", query.cypher, parameters, mode))
            if query.has_gremlin and query.name not in _SLOW_TO_PLAN:
                ops.append(Op(query.name + "/gremlin", "gremlin", query.gremlin,
                              None, mode))
    return ops


def _shuffled(ops: List[Op], seed: int) -> List[Op]:
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


# -- stream_cursor --------------------------------------------------------------------

TWO_HOP = ("MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(h:Person) "
           "RETURN p.id AS p, f.id AS f, h.id AS h")
FETCH_SIZE = 512
EARLY_ROWS = 64
_DRAIN = Op("drain", "cypher", TWO_HOP, None, "drain")
_EARLY = Op("early_close", "cypher", TWO_HOP, None, "early")


def stream_cycle(seed: int) -> List[Op]:
    """Three full drains to one early close; the seed moves the early close."""
    cycle = [_DRAIN, _DRAIN, _DRAIN, _EARLY]
    shift = seed % len(cycle)
    return cycle[shift:] + cycle[:shift]


# -- the five workloads ------------------------------------------------------------------

WORKLOADS: Tuple[Workload, ...] = (
    Workload("serve_http_mix",
             "short parameterised requests through GraphClient -> GraphHTTPServer: "
             "the only workload where client+server transport dominates",
             graph="social", transport="http", plan_cache=True,
             whole_cycles=False, multi_client=True),
    Workload("serve_inproc_mix",
             "the identical op sequence through Session.run, no server: isolates "
             "plan-cache lookup, bind and kernels on tiny results",
             graph="social", transport="inproc", plan_cache=True,
             whole_cycles=False),
    Workload("analytic_exec",
             "IC/BI/QR/QT/QC queries on LDBC G100 with warm plans: kernels and "
             "plan quality do the work, front end and cache are noise",
             graph="ldbc", transport="inproc", plan_cache=True, whole_cycles=True,
             min_samples=200),
    Workload("cold_plan",
             "parse + optimize of the same queries plus QC4a, no plan cache: the "
             "compile layer every other workload hides behind cache hits",
             graph="ldbc", transport="inproc", plan_cache=False, whole_cycles=True,
             min_samples=200),
    Workload("stream_cursor",
             "15k-row cursor drains and early closes over HTTP: large bodies, "
             "many /fetch round trips and laziness, the opposite of the mix",
             graph="ldbc", transport="http", plan_cache=True, whole_cycles=True),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}


def check_ops(workload: Workload, quick: bool) -> List[Op]:
    if workload.graph == "social":
        return serve_check_ops()
    if workload.name == "analytic_exec":
        return analytic_ops()
    if workload.name == "cold_plan":
        return analytic_ops("compile", with_qc4a=not quick)
    return [_DRAIN, _EARLY]


def cycle(workload: Workload, seed: int, quick: bool) -> List[Op]:
    if workload.graph == "social":
        return serve_cycle(seed)
    if workload.name == "stream_cursor":
        return stream_cycle(seed)
    return _shuffled(check_ops(workload, quick), seed)


def trace_ops(workload: Workload, quick: bool) -> List[Op]:
    """The fixed ops the traced pass replays, layer by layer, on the
    workload's own path."""
    if workload.name == "analytic_exec":
        ops = [op for op in analytic_ops() if op.kind not in HEAVY_TO_EXECUTE]
        return ops[::6] if quick else ops
    return check_ops(workload, quick)
