import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decon import graph, linalg, mixing
from decon.linalg import (
    NonFiniteMatrixError,
    NotPositiveSemidefiniteError,
    SymMatrix,
    wdot,
    wnorm_sq,
)

from oracles import as_fractions, eigenvalues_by_bisection, jacobi_eigh_reference


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
    w2, v2 = SymMatrix(m.copy(), name="b").eig()
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eig_iteration_cap_reports_matrix_and_residual(monkeypatch):
    import decon.linalg as linalg

    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(linalg.EigenConvergenceError, match="stubborn"):
        SymMatrix([[0.0, 1.0], [1.0, 0.0]], name="stubborn").eig()


def _assert_same_bits_as_reference(a: np.ndarray) -> None:
    a = SymMatrix(a, name="probe").a
    w, v = linalg._jacobi_eigh(a, "probe")
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
], ids=["zero", "scaled-identity", "gram-5x40", "w-12", "w-20", "I-w-12", "I-w-20",
        "tiny-off-diagonals", "zero-diagonal-gap", "near-equal-diagonals"])
def test_jacobi_matches_unstacked_reference_on_named_families(make):
    _assert_same_bits_as_reference(make())


def test_jacobi_sweep_cap_error_matches_reference(monkeypatch):
    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
    m = np.random.default_rng(4).standard_normal((8, 8))
    a = SymMatrix(m, name="capped").a
    with pytest.raises(linalg.EigenConvergenceError) as new:
        linalg._jacobi_eigh(a, "capped")
    with pytest.raises(linalg.EigenConvergenceError) as ref:
        jacobi_eigh_reference(a, "capped")
    assert str(new.value) == str(ref.value)
    assert "after 1 sweeps" in str(new.value)


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
