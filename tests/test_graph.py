import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decon.graph import (
    Graph,
    GraphError,
    complete,
    from_edge_list_text,
    line,
    random_connected,
    to_edge_list_text,
)


def test_two_node_random_is_forced():
    g = random_connected(2, 1.0, 0)
    assert g.edges == ((0, 1),)


def test_random_is_connected_and_reproducible():
    a = random_connected(10, 0.5, 7)
    b = random_connected(10, 0.5, 7)
    assert a.edges == b.edges
    assert a.is_connected()


def test_random_seeds_differ():
    a = random_connected(10, 0.5, 1)
    b = random_connected(10, 0.5, 2)
    assert a.edges != b.edges
    assert a.is_connected() and b.is_connected()


def test_line_shapes():
    assert line(2).edges == ((0, 1),)
    g3 = line(3)
    assert g3.edges == ((0, 1), (1, 2))
    assert list(g3.degrees) == [1, 2, 1]
    g10 = line(10)
    assert len(g10.edges) == 9
    assert list(g10.degrees) == [1] + [2] * 8 + [1]


def test_complete_counts():
    assert len(complete(3).edges) == 3
    assert len(complete(4).edges) == 6
    assert complete(2).edges == line(2).edges


def test_generators_symmetric_adjacency_and_connected():
    for seed in range(20):
        g = random_connected(8, 0.35, seed)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not g.adjacency.diagonal().any()
        assert g.is_connected()


def test_disconnected_rejected():
    with pytest.raises(GraphError):
        Graph(4, ((0, 1), (2, 3)))


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        Graph(3, ((0, 0), (0, 1), (1, 2)))


def test_edge_list_round_trip():
    g = random_connected(9, 0.4, 3)
    assert from_edge_list_text(to_edge_list_text(g)) == g


@st.composite
def _connected_edges(draw):
    """n and a shuffled edge list of a connected graph on n nodes: a random
    spanning tree plus extra edges, each pair in either orientation, repeats allowed."""
    n = draw(st.integers(2, 12))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    label = draw(st.permutations(range(n)))
    return n, draw(st.permutations([(label[i], label[j]) for i, j in pairs]))


@settings(max_examples=50, deadline=None)
@given(drawn=_connected_edges())
def test_edge_list_text_round_trips(drawn):
    n, edges = drawn
    g = Graph(n, tuple(edges))
    text = to_edge_list_text(g)
    assert from_edge_list_text(text) == g
    raw = "".join(f"{i} {j}\n" for i, j in edges)
    assert from_edge_list_text(raw) == g
    assert to_edge_list_text(from_edge_list_text(raw)) == text


def test_edge_list_parse_errors():
    with pytest.raises(GraphError):
        from_edge_list_text("0 1 2\n")
    with pytest.raises(GraphError):
        from_edge_list_text("\n")
    for text in ("0 1\n0 x\n", "0 1\n1 -2\n", "0 1\n1 2.0\n"):
        with pytest.raises(GraphError, match="line 2: expected 'i j'"):
            from_edge_list_text(text)


def test_edge_list_id_gap_rejected_before_allocation():
    # An unused id is an isolated node; a stray huge id must not size an
    # adjacency matrix of (id + 1)^2 entries before that is noticed.
    with pytest.raises(GraphError, match="node 1 is in no edge"):
        from_edge_list_text("0 1000000000\n")
    with pytest.raises(GraphError, match="node 2 is in no edge"):
        from_edge_list_text("0 1\n1 3\n")
