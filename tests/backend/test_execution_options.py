"""``ExecutionOptions``: the one place overrides resolve and validate."""

import pytest

from repro import GraphService
from repro.backend import ExecutionOptions, GraphScopeLikeBackend
from repro.errors import GOptError

DEFAULTS = ExecutionOptions(engine="row", timeout_seconds=60.0,
                            max_intermediate_results=2_000_000,
                            batch_size=1024, workers=4)

OVERRIDE_TABLE = [
    # (override kwargs, fields that change)
    ({}, {}),
    # None keeps the three fields that have no meaningful null ...
    ({"engine": None, "batch_size": None, "workers": None}, {}),
    # ... but *sets* the two budgets to unlimited
    ({"timeout_seconds": None}, {"timeout_seconds": None}),
    ({"max_intermediate_results": None}, {"max_intermediate_results": None}),
    ({"timeout_seconds": None, "max_intermediate_results": None},
     {"timeout_seconds": None, "max_intermediate_results": None}),
    ({"timeout_seconds": 0.5}, {"timeout_seconds": 0.5}),
    ({"max_intermediate_results": 10}, {"max_intermediate_results": 10}),
    ({"engine": "vectorized"}, {"engine": "vectorized"}),
    ({"engine": "dataflow", "workers": 2, "batch_size": 64},
     {"engine": "dataflow", "workers": 2, "batch_size": 64}),
]


@pytest.mark.parametrize("overrides,changed", OVERRIDE_TABLE,
                         ids=[repr(o) for o, _ in OVERRIDE_TABLE])
def test_override_table(overrides, changed):
    resolved = DEFAULTS.override(**overrides)
    expected = {"engine": "row", "timeout_seconds": 60.0,
                "max_intermediate_results": 2_000_000, "batch_size": 1024,
                "workers": 4, **changed}
    assert {name: getattr(resolved, name) for name in expected} == expected
    assert DEFAULTS.timeout_seconds == 60.0   # frozen: the source is untouched
    if not changed:
        assert resolved is DEFAULTS


@pytest.mark.parametrize("bad,match", [
    ({"batch_size": 0}, "batch_size"),
    ({"workers": 0}, "workers"),
    ({"engine": "turbo"}, "row.*vectorized.*dataflow"),
])
def test_invalid_values_are_rejected_wherever_they_enter(social_graph, bad, match):
    """One validation, reached from the constructor, ``override``, a backend
    constructor and ``service.session`` alike; the error is both of the types
    those entry points have historically raised."""
    service = GraphService(social_graph, backend="neo4j")
    for enter in (lambda: ExecutionOptions(**bad),
                  lambda: DEFAULTS.override(**bad),
                  lambda: GraphScopeLikeBackend(social_graph, **bad),
                  lambda: service.session(**bad),
                  lambda: service.backend.execute_streaming(None, **bad)):
        with pytest.raises(GOptError, match=match) as excinfo:
            enter()
        assert isinstance(excinfo.value, ValueError)


def test_unknown_override_name_is_a_type_error(social_graph):
    service = GraphService(social_graph, backend="neo4j")
    with pytest.raises(TypeError):
        service.session(turbo=True)


def test_session_resolves_once_against_the_backend_defaults(social_graph):
    service = GraphService(social_graph, backend="neo4j", workers=3,
                           timeout_seconds=7.0)
    assert service.session().options is service.backend.options
    session = service.session(engine="dataflow", max_intermediate_results=None)
    assert session.options == ExecutionOptions(
        engine="dataflow", timeout_seconds=7.0, max_intermediate_results=None,
        batch_size=1024, workers=3)
    assert (session.engine, session.workers) == ("dataflow", 3)
    assert service.backend.options.engine == "row"   # shared defaults untouched
