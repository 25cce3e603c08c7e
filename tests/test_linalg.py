import numpy as np
import pytest

from decon.linalg import (
    NotPositiveSemidefiniteError,
    SymMatrix,
    wdot,
    wnorm_sq,
)

from oracles import as_fractions, eigenvalues_by_bisection


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
