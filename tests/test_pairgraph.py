import pytest
from hypothesis import given, strategies as st

from bcnobs.bcnio import gen_random_bcn
from bcnobs.pairgraph import build

from pairviews import PairVertex, edges, non_diagonal_vertices, pair_vertices
from reference import make_pair, output, step


def v(a, b):
    return PairVertex(a, b)


def edge_table(graph):
    return {
        (src.label(), dst.label()): weight
        for (src, dst), weight in edges(graph).items()
    }


EDGES_5 = {
    ("11", "11"): (1, 2),
    ("22", "22"): (1,),
    ("22", "11"): (2,),
    ("23", "22"): (1,),
    ("24", "11"): (2,),
    ("33", "22"): (1,),
    ("33", "44"): (2,),
    ("44", "11"): (1, 2),
}
EDGES_6 = {
    ("11", "11"): (1, 2),
    ("22", "33"): (1, 2),
    ("33", "11"): (1,),
    ("33", "22"): (2,),
    ("34", "22"): (2,),
    ("44", "33"): (1,),
    ("44", "22"): (2,),
}
EDGES_7 = {
    ("11", "11"): (1, 2),
    ("12", "11"): (1,),
    ("22", "11"): (1,),
    ("22", "33"): (2,),
    ("33", "11"): (1,),
    ("33", "22"): (2,),
    ("34", "22"): (2,),
    ("44", "33"): (1,),
    ("44", "22"): (2,),
}


def test_bcn5_vertices(graph5):
    assert graph5.vertices == frozenset(
        [v(1, 1), v(2, 2), v(3, 3), v(4, 4), v(2, 3), v(2, 4), v(3, 4)]
    )


def test_bcn5_edges_exact(graph5):
    assert edge_table(graph5) == EDGES_5


def test_bcn5_isolated_vertex(graph5):
    assert graph5.successor[v(3, 4)] == {}


@pytest.mark.parametrize("fixture,expected", [
    ("graph6", EDGES_6), ("graph7", EDGES_7),
])
def test_fixture_edges(fixture, expected, request):
    assert edge_table(request.getfixturevalue(fixture)) == expected


def test_non_diagonal_sets(graph5, graph6, graph7):
    assert non_diagonal_vertices(graph5) == frozenset([v(2, 3), v(2, 4), v(3, 4)])
    assert non_diagonal_vertices(graph6) == frozenset([v(1, 2), v(3, 4)])
    assert non_diagonal_vertices(graph7) == frozenset([v(1, 2), v(3, 4)])


def _definition_check(network):
    """Recompute vertices and transitions straight from the definition,
    iterating ordered pairs both ways so canonicalisation is exercised."""
    graph = build(network)
    expected_vertices = set()
    for a in range(1, network.n_states + 1):
        for b in range(1, network.n_states + 1):
            if output(network, a) == output(network, b):
                expected_vertices.add(make_pair(b, a))
    assert graph.vertices == frozenset(expected_vertices)
    for vertex in pair_vertices(graph):
        for control in range(1, network.n_inputs + 1):
            target = make_pair(
                step(network, vertex.hi, control), step(network, vertex.lo, control)
            )
            if output(network, target.lo) == output(network, target.hi):
                assert graph.successor[vertex][control] == target
            else:
                assert control not in graph.successor[vertex]


def test_build_matches_definition_on_fixtures(bcn5, bcn6, bcn7):
    for network in (bcn5, bcn6, bcn7):
        _definition_check(network)


@given(st.integers(0, 2 ** 32))
def test_build_matches_definition_random(seed):
    _definition_check(gen_random_bcn(seed, 2, 1, 1))


@given(st.integers(0, 2 ** 32), st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
def test_diagonal_closure(seed, n, m, q):
    network = gen_random_bcn(seed, n, m, q)
    graph = build(network)
    for state in range(1, network.n_states + 1):
        row = graph.successor[v(state, state)]
        assert sorted(row) == list(range(1, network.n_inputs + 1))
        for target in row.values():
            assert PairVertex._make(target).diagonal


@given(st.integers(0, 2 ** 32))
def test_per_input_determinism(seed):
    network = gen_random_bcn(seed, 2, 2, 1)
    graph = build(network)
    for vertex, row in graph.successor.items():
        # grouping by target never duplicates or invents an input
        letters = [u for (src, _), weight in edges(graph).items() if src == vertex for u in weight]
        assert sorted(letters) == sorted(row)
