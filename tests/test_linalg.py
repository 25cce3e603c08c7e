import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decon import graph, harness, linalg, mixing, problem
from decon.linalg import (
    NonFiniteMatrixError,
    NotPositiveSemidefiniteError,
    SymMatrix,
)

from oracles import as_fractions, eigenvalues_by_bisection, jacobi_eigh_reference, wdot, wnorm_sq


def test_eig_identity():
    w, v = SymMatrix(np.eye(3)).eig()
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)


def test_eig_2x2_exchange():
    w, _ = SymMatrix([[0.0, 1.0], [1.0, 0.0]]).eig()
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eig_matches_char_poly_bisection_5x5():
    # Dyadic rational entries so the oracle works in exact arithmetic.
    rng = np.random.default_rng(7)
    ints = rng.integers(-16, 17, size=(5, 5))
    ints = ints + ints.T
    a = SymMatrix(ints / 16.0, name="seeded 5x5")
    expected = eigenvalues_by_bisection(as_fractions(ints.tolist(), denom=16))
    assert np.abs(a.eigenvalues - np.array(expected)).max() <= 1e-9


def test_eig_round_trip_many_seeds():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        m = rng.standard_normal((n, n))
        a = SymMatrix(m, name="roundtrip")
        w, v = a.eig()
        scale = max(1.0, float(np.linalg.norm(a.a)))
        assert np.linalg.norm((v * w) @ v.T - a.a) <= 1e-10 * scale
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10
        assert np.all(np.diff(w) >= 0)


def test_eig_brackets_rayleigh_quotients():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 8))
    a = SymMatrix(m, name="rayleigh")
    lo, hi = a.lambda_min, a.lambda_max
    for _ in range(100):
        v = rng.standard_normal(8)
        q = float(v @ a.a @ v / (v @ v))
        assert lo - 1e-9 <= q <= hi + 1e-9


def test_pinv_diagonal():
    p = SymMatrix(np.diag([2.0, 0.0])).pinv()
    assert np.allclose(p.a, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_two_node_consensus_defect():
    # I - W for the two-node line has the single nonzero eigenvalue 1 on the
    # disagreement direction, so it is its own pseudo-inverse; the value is
    # pinned by the Moore-Penrose identity A A+ A = A.
    a = SymMatrix([[0.5, -0.5], [-0.5, 0.5]], name="I - w (2 nodes)")
    p = a.pinv()
    assert np.allclose(p.a, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
    assert np.allclose(a.a @ p.a @ a.a, a.a, atol=1e-12)


def test_pinv_zero_matrix():
    p = SymMatrix(np.zeros((3, 3))).pinv()
    assert np.array_equal(p.a, np.zeros((3, 3)))


def test_pinv_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        SymMatrix(np.diag([1.0, -1.0])).pinv()


def test_pinv_moore_penrose_on_random_psd():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1))
        b = rng.standard_normal((n, rank))
        a = SymMatrix(b @ b.T, name="psd")
        p = a.pinv()
        scale = max(1.0, a.lambda_max)
        assert np.linalg.norm(a.a @ p.a @ a.a - a.a) <= 1e-9 * scale
        assert np.linalg.norm(p.a @ a.a @ p.a - p.a) <= 1e-9 * max(1.0, p.lambda_max)
        assert np.linalg.norm(a.a @ p.a - (a.a @ p.a).T) <= 1e-9


def test_wnorm_identity_weight_is_frobenius():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4))
    assert wnorm_sq(x, np.eye(6)) == pytest.approx(float(np.sum(x * x)), rel=1e-14)
    assert wnorm_sq(np.zeros((6, 4)), np.eye(6)) == 0.0


def test_wnorm_hand_expanded():
    x = np.array([[1.0], [-1.0]])
    h = np.diag([2.0, 3.0])
    assert wnorm_sq(x, h) == pytest.approx(5.0, abs=1e-15)


def test_wdot_matches_wnorm_and_hand_case():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 3))
    h = SymMatrix(rng.standard_normal((5, 5)), name="h")
    assert wdot(x, x, h) == pytest.approx(wnorm_sq(x, h), rel=1e-12)
    ones = np.ones((2, 2))
    assert wdot(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), ones) == pytest.approx(1.0)


def test_wnorm_nonnegative_for_psd_weight():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((7, 3))
    h = SymMatrix(b @ b.T, name="psd")
    for _ in range(50):
        x = rng.standard_normal((7, 2))
        val = wnorm_sq(x, h)
        assert val >= -1e-12 * float(np.sum(x * x)) * h.lambda_max


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        wnorm_sq(np.ones((3, 2)), np.eye(4))
    with pytest.raises(ValueError):
        wdot(np.ones((3, 2)), np.ones((4, 2)), np.eye(3))


def test_symmetrization_on_construction():
    a = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
    assert a.a[0, 1] == a.a[1, 0] == 1.0


def test_eig_bit_identical_across_instances():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((9, 9))
    w1, v1 = SymMatrix(m, name="a").eig()
    linalg.clear_eig_cache()  # compare two real solves, not a solve and a hit
    w2, v2 = SymMatrix(m.copy(), name="b").eig()
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eig_iteration_cap_reports_matrix_and_residual(monkeypatch):
    import decon.linalg as linalg

    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(linalg.EigenConvergenceError, match="stubborn"):
        SymMatrix([[0.0, 1.0], [1.0, 0.0]], name="stubborn").eig()


def _counting_solver(monkeypatch) -> list[str]:
    """Route `_jacobi_eigh` through a hook that records each solved name."""
    solved = []
    jacobi = linalg._jacobi_eigh

    def counting(mats, names):
        solved.extend(names)
        return jacobi(mats, names)

    monkeypatch.setattr(linalg, "_jacobi_eigh", counting)
    return solved


def test_eig_cache_hit_equals_a_fresh_solve_and_is_read_only(monkeypatch):
    solved = _counting_solver(monkeypatch)
    m = np.random.default_rng(5).standard_normal((7, 7))
    w1, v1 = SymMatrix(m, name="first").eig()
    w2, v2 = SymMatrix(m.copy(), name="second").eig()
    assert solved == ["first"]
    linalg.clear_eig_cache()
    w3, v3 = SymMatrix(m, name="third").eig()
    assert solved == ["first", "third"]
    for w, v in ((w1, v1), (w2, v2)):
        assert np.array_equal(w, w3) and np.array_equal(v, v3)
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0.0
    # Entries differing in one bit are a different key, not a hit.
    m2 = m.copy()
    m2[2, 3] = np.nextafter(m2[2, 3], np.inf)
    SymMatrix(m2, name="fourth").eig()
    assert solved == ["first", "third", "fourth"]


def test_failed_solves_are_not_cached(monkeypatch):
    a = [[0.0, 1.0], [1.0, 0.0]]

    def failing(mats, names):
        raise linalg.EigenConvergenceError(f"eigensolver did not converge on {names[0]!r}")

    monkeypatch.setattr(linalg, "_jacobi_eigh", failing)
    for name in ("first", "second"):
        with pytest.raises(linalg.EigenConvergenceError, match=f"'{name}'"):
            SymMatrix(a, name=name).eig()
    monkeypatch.undo()
    # A result that fails the residual check is not stored either.
    monkeypatch.setattr(linalg, "_jacobi_eigh", lambda mats, names: [(np.zeros(2), np.eye(2))])
    for name in ("third", "fourth"):
        with pytest.raises(linalg.EigenConvergenceError, match=f"'{name}' failed its residual"):
            SymMatrix(a, name=name).eig()
    assert not linalg._eig_cache and linalg._eig_cache_bytes == 0
    monkeypatch.undo()
    w, _ = SymMatrix(a, name="fifth").eig()
    assert np.array_equal(w, [-1.0, 1.0])


def _entry_bytes(n: int) -> int:
    return 8 * n * n + 8 * n + 8 * n * n  # key bytes, eigenvalues, eigenvectors


def test_decompose_solves_each_distinct_matrix_of_a_list_once_in_one_stack(monkeypatch):
    rng = np.random.default_rng(6)
    m, other = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
    solved = _counting_solver(monkeypatch)
    SymMatrix(m, name="cached").eig()
    mats = [SymMatrix(x, name=name) for x, name in
            ((other, "first"), (m, "hit"), (other.copy(), "repeat"))]
    linalg.decompose(mats)
    # Neither a cache hit nor a repeat within the list is solved again.
    assert solved == ["cached", "first"]
    assert mats[2].eig()[0] is mats[0].eig()[0]
    assert mats[1].eig()[0] is SymMatrix(m.copy(), name="again").eig()[0]


def _stacks_solved(monkeypatch) -> list[list[str]]:
    """Route `_jacobi_eigh` through a hook that records the names of each stack."""
    stacks = []
    jacobi = linalg._jacobi_eigh
    monkeypatch.setattr(linalg, "_jacobi_eigh",
                        lambda mats, names: stacks.append(list(names)) or jacobi(mats, names))
    return stacks


def test_decompose_returns_each_result_in_input_order_from_one_stack(monkeypatch):
    rng = np.random.default_rng(12)
    a, b, c = (rng.standard_normal((6, 6)) for _ in range(3))
    cached = SymMatrix(b, name="cached").eig()
    stacks = _stacks_solved(monkeypatch)
    mats = [SymMatrix(x, name=name) for x, name in
            ((a, "a"), (b, "hit"), (c, "c"), (a.copy(), "repeat"))]
    results = linalg.decompose(mats)
    assert stacks == [["a", "c"]]
    assert len(results) == len(mats)
    monkeypatch.undo()
    for mat, (w, v) in zip(mats, results):
        solo = linalg._jacobi_eigh(mat.a[None], [mat.name])[0]
        assert np.array_equal(w, solo[0]) and np.array_equal(v, solo[1]), mat.name
    # A cache hit and a repeat within the list return the identical arrays.
    assert all(x is y for x, y in zip(results[1], cached))
    assert all(x is y for x, y in zip(results[3], results[0]))
    assert all(x is y for x, y in zip(SymMatrix(c, name="again").eig(), results[2]))


def test_decompose_returns_a_hit_its_own_misses_evict(monkeypatch):
    # Room for one 4 x 4 entry: storing each miss evicts the entry before it,
    # the hit looked up first included.
    monkeypatch.setattr(linalg, "_EIG_CACHE_BUDGET", _entry_bytes(4))
    rng = np.random.default_rng(13)
    h, x, y = (rng.standard_normal((4, 4)) for _ in range(3))
    cached = SymMatrix(h, name="cached").eig()
    stacks = _stacks_solved(monkeypatch)
    mats = [SymMatrix(h, name="hit"), SymMatrix(x, name="x"), SymMatrix(y, name="y"),
            SymMatrix(x, name="x again")]
    results = linalg.decompose(mats)
    assert stacks == [["x", "y"]]
    assert all(got is want for got, want in zip(results[0], cached))
    assert all(got is want for got, want in zip(results[3], results[1]))
    for mat, (w, v) in zip(mats, results):
        assert np.linalg.norm((v * w) @ v.T - mat.a) <= 1e-10 * max(1.0, np.linalg.norm(mat.a))
    # Only y, stored last, is left: h and x are solved again when next read.
    assert list(linalg._eig_cache) == [((4, 4), SymMatrix(y).a.tobytes(), None)]
    SymMatrix(h, name="hit evicted").eig()
    assert stacks[1:] == [["hit evicted"]]


def test_eig_cache_stays_within_its_budget_and_evicts_least_recently_used(monkeypatch):
    # Scaled identities solve at once, so the real budget is cheap to fill.
    n = 256
    per = linalg._EIG_CACHE_BUDGET // _entry_bytes(n)
    solved = _counting_solver(monkeypatch)
    scaled = [SymMatrix(float(k + 1) * np.eye(n), name=f"s{k}") for k in range(per + 2)]
    for s in scaled[:per]:
        s.eig()
    assert linalg._eig_cache_bytes == per * _entry_bytes(n) <= linalg._EIG_CACHE_BUDGET
    SymMatrix(scaled[0].a.copy(), name="again").eig()  # s0 becomes most recently used
    assert len(solved) == per
    scaled[per].eig()  # over budget: s1, the least recently used, goes
    scaled[per + 1].eig()  # and then s2
    assert linalg._eig_cache_bytes == per * _entry_bytes(n) <= linalg._EIG_CACHE_BUDGET
    solved.clear()
    for k in (0, 3, per, per + 1):
        SymMatrix(scaled[k].a.copy(), name=f"hit{k}").eig()
    assert solved == []
    for k in (1, 2):
        SymMatrix(scaled[k].a.copy(), name=f"miss{k}").eig()
    assert solved == ["miss1", "miss2"]


def test_eig_cache_skips_a_result_larger_than_its_budget(monkeypatch):
    monkeypatch.setattr(linalg, "_EIG_CACHE_BUDGET", _entry_bytes(4) - 1)
    solved = _counting_solver(monkeypatch)
    SymMatrix(np.eye(2), name="small").eig()
    for name in ("first", "second"):
        SymMatrix(2.0 * np.eye(4), name=name).eig()
    SymMatrix(np.eye(2), name="small again").eig()
    # The oversized result neither enters the cache nor flushes what is there.
    assert solved == ["small", "first", "second"]
    assert linalg._eig_cache_bytes == _entry_bytes(2)


@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_a_basis_that_does_not_commute_still_passes_the_residual_check(n):
    # A random symmetric matrix's eigenvectors leave V^T a V far from diagonal:
    # Jacobi does the sweeps a cold solve would, and V U must still decompose a.
    rng = np.random.default_rng(n)
    a = SymMatrix(rng.standard_normal((n, n)), name="a",
                  basis=SymMatrix(rng.standard_normal((n, n)), name="unrelated"))
    w, v = a.eig()
    scale = max(1.0, float(np.linalg.norm(a.a)))
    assert np.linalg.norm((v * w) @ v.T - a.a) <= 1e-10 * scale
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10
    assert np.abs(w - linalg._jacobi_eigh(a.a[None], ["cold"])[0][0]).max() <= 1e-9 * scale


def test_basis_entries_join_the_cache_key(monkeypatch):
    rng = np.random.default_rng(3)
    m, b1, b2 = (rng.standard_normal((6, 6)) for _ in range(3))
    solved = _counting_solver(monkeypatch)
    cold = SymMatrix(m, name="cold").eig()
    first = SymMatrix(m, name="warm 1", basis=SymMatrix(b1, name="b1")).eig()
    SymMatrix(m, name="warm 2", basis=SymMatrix(b2, name="b2")).eig()
    # Neither a cold entry nor another basis's entry serves a solve.
    assert solved == ["cold", "b1", "warm 1", "b2", "warm 2"]
    # Five entries; the two warm ones also hold their basis's 6 x 6 entries.
    assert linalg._eig_cache_bytes == 5 * _entry_bytes(6) + 2 * 8 * 6 * 6
    # The same entries and basis entries are a hit, and that hit holds the
    # bits of a fresh solve; the cold entry is a hit only without a basis.
    hit = SymMatrix(m.copy(), name="again", basis=SymMatrix(b1.copy(), name="b1 again")).eig()
    assert all(x is y for x, y in zip(SymMatrix(m.copy(), name="cold again").eig(), cold))
    assert solved == ["cold", "b1", "warm 1", "b2", "warm 2"]
    linalg.clear_eig_cache()
    fresh = SymMatrix(m, name="fresh", basis=SymMatrix(b1, name="b1 fresh")).eig()
    for got, want in zip(hit + first, fresh + fresh):
        assert np.array_equal(got, want)
    assert not np.array_equal(cold[1], first[1])


def _assert_same_bits_as_reference(a: np.ndarray) -> None:
    a = SymMatrix(a, name="probe").a
    w, v = linalg._jacobi_eigh(a[None], ["probe"])[0]
    w_ref, v_ref = jacobi_eigh_reference(a, "probe")
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e3, 1e12]))
def test_jacobi_matches_unstacked_reference_bit_for_bit(n, seed, scale):
    _assert_same_bits_as_reference(np.random.default_rng(seed).standard_normal((n, n)) * scale)


def _gram_5x40():
    m = np.random.default_rng(3).standard_normal((5, 40))
    return m.T @ m


def _metropolis(n, seed):
    return mixing.metropolis(graph.random_connected(n, 0.4, seed)).a


def _certify_large_mixing():
    # The certify-large benchmark instance's pair: random topology, n = 50, seed 2.
    config = harness.RunConfig(topology="random", n=50, p=5, mi=1, seed=2)
    return harness.build_mixing(config, harness.build_graph(config))


def _certify_long_grams(count):
    # The first `count` cold M_i^T M_i of the certify-long benchmark instance
    # (n = 10, p = 40, m_i = 5, seed 2), drawn as `problem.generate` draws them.
    rng = np.random.default_rng(2)
    rng.standard_normal(40)  # x_true
    sensing = rng.standard_normal((10, 5, 40))
    return [problem._agent_gram(sensing, i).a for i in range(count)]


def _tiny_off_diagonals(diagonal):
    # One O(1) coupling keeps the off-diagonal mass above the stopping target,
    # so the sweep visits every 1e-20 pivot.
    a = np.full((len(diagonal), len(diagonal)), 1e-20)
    np.fill_diagonal(a, diagonal)
    a[0, 1] = a[1, 0] = 0.5
    return a


def _near_equal_diagonals():
    m = np.random.default_rng(8).standard_normal((7, 7)) * 1e-3
    a = m + m.T
    np.fill_diagonal(a, 1.0 + np.array([0, 0, 1, 1, 2, 2, 3]) * 2.0**-52)
    return a


@pytest.mark.parametrize("make", [
    lambda: np.zeros((4, 4)),
    lambda: 2.5 * np.eye(6),
    _gram_5x40,
    lambda: _metropolis(12, 2),
    lambda: _metropolis(20, 5),
    lambda: np.eye(12) - _metropolis(12, 2),
    lambda: np.eye(20) - _metropolis(20, 5),
    # Every pivot is negligible against both diagonals: the first guard branch.
    lambda: _tiny_off_diagonals([1.0, 2.0, -3.0, 4.0, 5.0]),
    # A zero diagonal leaves the pivot negligible only against the gap.
    lambda: _tiny_off_diagonals([1.0, 2.0, 0.0, -2.0, 3.0]),
    _near_equal_diagonals,
    lambda: _certify_large_mixing().w.a,
    lambda: _certify_large_mixing().wt.a,
], ids=["zero", "scaled-identity", "gram-5x40", "w-12", "w-20", "I-w-12", "I-w-20",
        "tiny-off-diagonals", "zero-diagonal-gap", "near-equal-diagonals",
        "certify-large-w", "certify-large-w-tilde"])
def test_jacobi_matches_unstacked_reference_on_named_families(make):
    _assert_same_bits_as_reference(make())


def test_jacobi_sweep_cap_error_matches_reference(monkeypatch):
    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
    m = np.random.default_rng(4).standard_normal((8, 8))
    a = SymMatrix(m, name="capped").a
    with pytest.raises(linalg.EigenConvergenceError) as new:
        linalg._jacobi_eigh(a[None], ["capped"])
    with pytest.raises(linalg.EigenConvergenceError) as ref:
        jacobi_eigh_reference(a, "capped")
    assert str(new.value) == str(ref.value)
    assert "after 1 sweeps" in str(new.value)


_KINDS = ("random", "zero", "diagonal", "rank-1", "tiny-pivot")
_SCALES = (1e-12, 1e-3, 1.0, 1e3, 1e12)


def _member(kind: str | np.ndarray, n: int, rng) -> np.ndarray:
    if isinstance(kind, np.ndarray):  # a fixed matrix, as an @example passes one
        return kind
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "diagonal" or (kind == "tiny-pivot" and n == 1):
        return np.diag(rng.standard_normal(n))
    if kind == "rank-1":
        x = rng.standard_normal(n)
        return np.outer(x, x)
    if kind == "tiny-pivot":
        return _tiny_off_diagonals(rng.standard_normal(n))
    return rng.standard_normal((n, n))


def _stack(n: int, members, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([SymMatrix(_member(kind, n, rng) * scale).a for kind, scale in members])


def _assert_same_bits(got, want) -> None:
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes() and x.strides == y.strides


@example(n=40, seed=7, members=[(kind, scale) for kind in _KINDS for scale in (1e-12, 1e12)][:12])
# Three of the certify-long benchmark's rank-5 Grams, one stack as `problem` solves them.
@example(n=40, seed=0, members=[(gram, 1.0) for gram in _certify_long_grams(3)])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       members=st.lists(st.tuples(st.sampled_from(_KINDS), st.sampled_from(_SCALES)),
                        min_size=1, max_size=12))
def test_each_member_of_a_stack_gets_its_solo_reference_bits(n, seed, members):
    # Stacking only shares the column rotations: every member's eigenvalues,
    # eigenvectors and their strides are what the per-matrix reference gives
    # on that matrix alone, whatever sits next to it.
    stack = _stack(n, members, seed)
    names = [f"member {k}" for k in range(len(stack))]
    got = linalg._jacobi_eigh(stack, names)
    assert len(got) == len(stack)
    for a, name, pair in zip(stack, names, got):
        _assert_same_bits(pair, jacobi_eigh_reference(a, name))


@example(n=8, kinds=["diagonal", "random", "random"], cap=1, seed=4)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), cap=st.integers(0, 3),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6))
def test_a_capped_stack_raises_as_its_first_capped_member_alone(n, seed, cap, kinds):
    stack = _stack(n, [(kind, 1.0) for kind in kinds], seed)
    names = [f"member {k}" for k in range(len(stack))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_JACOBI_MAX_SWEEPS", cap)
        expected = None
        for a, name in zip(stack, names):
            try:
                jacobi_eigh_reference(a, name)
            except linalg.EigenConvergenceError as err:
                expected = str(err)
                break
        if expected is None:
            for a, name, pair in zip(stack, names, linalg._jacobi_eigh(stack, names)):
                _assert_same_bits(pair, jacobi_eigh_reference(a, name))
        else:
            with pytest.raises(linalg.EigenConvergenceError) as err:
                linalg._jacobi_eigh(stack, names)
            assert str(err.value) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_a_named_error(bad):
    with pytest.raises(NonFiniteMatrixError, match="'probe' holds non-finite entries"):
        SymMatrix([[bad]], name="probe")
    with pytest.raises(NonFiniteMatrixError):
        SymMatrix([[1.0, bad], [0.0, 1.0]], name="probe")


def test_symmetrizing_overflow_is_a_named_error():
    with pytest.raises(NonFiniteMatrixError):
        SymMatrix([[1.0, 1e308], [1e308, 1.0]], name="probe")


def test_overflowing_norm_is_a_named_error():
    # Finite entries whose norm overflows would make the residual check's scale
    # infinite and switch the check off.
    with pytest.raises(NonFiniteMatrixError, match="norm overflows float64"):
        SymMatrix(np.full((2, 2), 1e160)).eig()


def _with_lambda_min(rng, n: int, lam_min: float) -> np.ndarray:
    """A symmetric matrix whose smallest eigenvalue is lam_min, the rest at least
    0.1 above it."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = lam_min + rng.uniform(0.1, 2.0, n)
    d[rng.integers(n)] = lam_min
    return (q * d) @ q.T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["generic", "rank-deficient", "just above", "just below"]),
       floor=st.sampled_from([-1e-10, 0.0, 0.7, -2.5]))
def test_lambda_min_at_least_matches_the_jacobi_decision(n, seed, kind, floor):
    rng = np.random.default_rng(seed)
    if kind == "generic":
        a = rng.standard_normal((n, n))
    elif kind == "rank-deficient":
        # PSD of rank n // 2 against the PD/PSD slack -1e-10 the checks use.
        b = rng.standard_normal((n, n // 2))
        a, floor = b @ b.T, -1e-10
    else:
        # lambda_min within 1e-9 relative of the floor, on either side.
        offset = 1e-9 * max(1.0, abs(floor))
        a = _with_lambda_min(rng, n, floor + (offset if kind == "just above" else -offset))
    linalg.clear_eig_cache()
    solves = []
    jacobi = linalg._jacobi_eigh

    def counting(mats, names):
        solves.extend(names)
        return jacobi(mats, names)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_jacobi_eigh", counting)
        answer = SymMatrix(a, name="probe").lambda_min_at_least(floor)
    expected = SymMatrix(a, name="probe").lambda_min >= floor
    assert answer == expected
    if kind in ("rank-deficient", "just above", "just below"):
        assert expected == (kind != "just below")
    # A yes comes from the Cholesky factorization alone; a no from one solve.
    assert solves == ([] if answer else ["probe"])


@pytest.mark.parametrize("build, message", [
    (lambda: SymMatrix(np.ones((2, 3)), name="m"), "'m' must be square, got shape (2, 3)"),
    (lambda: SymMatrix(np.ones(3), name="m"), "'m' must be square, got shape (3,)"),
    (lambda: SymMatrix(np.zeros((0, 0)), name="m"), "'m' must have dimension >= 1"),
    (lambda: SymMatrix(np.eye(3), name="m", basis=SymMatrix(np.eye(2), name="b")),
     "'m' has shape (3, 3) but its basis 'b' has shape (2, 2)"),
    (lambda: wdot(np.ones((3, 2)), np.ones((3, 2)), np.eye(2)),
     "dimension mismatch: x has 3 rows, H is 2x2"),
])
def test_malformed_linalg_inputs_are_named(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
