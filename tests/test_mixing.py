import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decon import mixing
from decon.graph import Graph, GraphError, complete, line, random_connected
from decon.linalg import SymMatrix
from decon.mixing import (
    MixingValidationError,
    dump_matrix_text,
    metropolis,
    relax,
    theta_default,
    validate,
)

from oracles import eigenvalues_by_bisection, half_pair, parse_matrix_text


def test_metropolis_complete_triangle():
    w = metropolis(complete(3))
    assert np.allclose(w.a, np.full((3, 3), 1.0 / 3.0), atol=1e-15)
    assert np.allclose(np.sort(w.eigenvalues), [0.0, 0.0, 1.0], atol=1e-12)


def test_metropolis_two_node_line():
    w = metropolis(line(2))
    assert np.allclose(w.a, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert np.allclose(w.eigenvalues, [0.0, 1.0], atol=1e-14)


def test_metropolis_three_node_line_weights_and_oracle():
    w = metropolis(line(3))
    assert w.a[0, 1] == pytest.approx(1.0 / 3.0)
    assert w.a[1, 2] == pytest.approx(1.0 / 3.0)
    assert np.allclose(np.diag(w.a), [2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0])
    third = Fraction(1, 3)
    exact = [
        [2 * third, third, Fraction(0)],
        [third, third, third],
        [Fraction(0), third, 2 * third],
    ]
    expected = eigenvalues_by_bisection(exact)
    assert np.abs(w.eigenvalues - np.array(expected)).max() <= 1e-9


def test_metropolis_row_sums_and_top_eigenpair():
    for seed in range(10):
        g = random_connected(10, 0.5, seed)
        w = metropolis(g)
        assert np.abs(w.a.sum(axis=1) - 1.0).max() <= 1e-14
        assert w.lambda_max == pytest.approx(1.0, abs=1e-12)
        ones = np.ones(10) / np.sqrt(10)
        assert np.abs(w.a @ ones - ones).max() <= 1e-12
        assert w.lambda_min > -1.0


def test_relax_identity_fixed_point():
    w = SymMatrix(np.eye(4), name="identity")
    assert np.allclose(relax(w, 1.0 / 3.0).a, np.eye(4), atol=1e-15)


def test_relax_affine_spectrum_map():
    w = metropolis(line(2))  # eigenvalues {0, 1}
    new = relax(w, 1.0 / 3.0)
    assert np.allclose(new.a, [[1.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)
    assert np.allclose(new.eigenvalues, [-1.0 / 3.0, 1.0], atol=1e-14)


def test_relax_preserves_eigenvectors():
    w = metropolis(random_connected(10, 0.5, 4))
    new = relax(w, 0.25)
    assert np.linalg.norm(w.a @ new.a - new.a @ w.a) <= 1e-10
    # eigenvalue map lam -> (1+c) lam - c, checked spectrally
    assert np.abs(np.sort(new.eigenvalues) - np.sort(1.25 * w.eigenvalues - 0.25)).max() <= 1e-12


def test_relax_rejects_too_wide():
    w = SymMatrix(np.diag([1.0, -0.9999999]), name="near edge")
    with pytest.raises(MixingValidationError):
        relax(relax(w, 1.0 / 3.0), 1.0 / 3.0)


def test_validate_passes_for_metropolis_pairs():
    for seed in range(8):
        mp = half_pair(random_connected(10, 0.5, seed))
        assert 0.75 < mp.theta <= 1.0
        assert mp.w.lambda_max == pytest.approx(1.0, abs=1e-12)


def test_validate_rejects_identity_pair():
    g = line(3)
    eye = SymMatrix(np.eye(3), name="identity")
    with pytest.raises(MixingValidationError) as err:
        validate(eye, eye, g)
    assert any("part 3" in v for v in err.value.violations)


def test_validate_rejects_wt_equal_w_with_low_spectrum():
    g = line(10)
    w = relax(metropolis(g), 1.0 / 3.0)
    assert w.lambda_min <= -1.0 / 3.0
    with pytest.raises(MixingValidationError) as err:
        validate(w, w, g)
    assert any("part 4" in v and "w_tilde + I/3" in v for v in err.value.violations)


def test_validate_rejects_wt_above_half_combination():
    g = random_connected(10, 0.5, 6)
    w = metropolis(g)
    wt = SymMatrix(w.a + 0.6 * (np.eye(10) - w.a), name="too big")
    with pytest.raises(MixingValidationError) as err:
        validate(w, wt, g)
    assert any("part 4" in v and "(I+w)/2" in v for v in err.value.violations)


@pytest.mark.parametrize("push, accepted", [(-1e-9, True), (1e-9, False)])
def test_validate_checks_the_half_combination_ordering_on_g(push, accepted):
    # w_tilde = a I + (1 - a) w with a = 1/2 + push: (I+w)/2 - w_tilde =
    # -push (I - w), so the ordering holds below a = 1/2 and fails above it.
    g = random_connected(10, 0.5, 5)
    w = metropolis(g)
    a = 0.5 + push
    wt = SymMatrix(a * np.eye(10) + (1.0 - a) * w.a, name="pushed")
    if accepted:
        mp = validate(w, wt, g)
        assert mp.g.lambda_min >= -1e-10
        return
    with pytest.raises(MixingValidationError) as err:
        validate(w, wt, g)
    (message,) = err.value.violations
    prefix = "part 4 (spectral): (I+w)/2 - w_tilde has eigenvalue "
    assert message.startswith(prefix) and message.endswith(" < 0")
    reported = float(message[len(prefix):-len(" < 0")])
    assert reported == pytest.approx(-push * (1.0 - w.lambda_min), rel=1e-5)


def test_validate_rejects_a_dimension_mismatch():
    with pytest.raises(MixingValidationError,
                       match="dimension mismatch: graph has 4 nodes, matrices are 3 and 3"):
        half_pair(line(4), metropolis(line(3)))


def test_validate_names_every_row_sum_residual():
    # Rows of 0.9 w sum to 0.9: w_tilde - w, I - w_tilde and I - w all miss
    # the all-ones vector.
    g = random_connected(6, 0.6, 1)
    w = SymMatrix(0.9 * metropolis(g).a, name="shrunk")
    with pytest.raises(MixingValidationError) as err:
        half_pair(g, w)
    residuals = [v for v in err.value.violations if "1 has residual" in v]
    assert residuals == [
        "part 3 (null space): (w_tilde - w) 1 has residual 5.000e-02",
        "part 3 (null space): (I - w_tilde) 1 has residual 5.000e-02",
        "null space of I - w: (I - w) 1 has residual 1.000e-01",
    ]


def test_validate_reports_a_negative_w_tilde_minus_w_once():
    g = random_connected(6, 0.6, 1)
    w = metropolis(g)
    wt = SymMatrix(w.a - 0.1 * (np.eye(6) - w.a), name="below w")
    with pytest.raises(MixingValidationError) as err:
        validate(w, wt, g)
    named = [v for v in err.value.violations if "w_tilde - w" in v]
    assert named == ["part 4 (spectral): w_tilde - w has eigenvalue -1.316e-01 < 0"]


def test_validate_rejects_block_averaging_null_space():
    # Two disjoint averaging blocks keep every per-block-constant vector fixed,
    # so the consensus null space is two-dimensional.
    g = complete(4)
    block = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(MixingValidationError) as err:
        half_pair(g, SymMatrix(block, name="block averaging"))
    assert any("larger than span(1)" in v for v in err.value.violations)


def test_validate_rejects_off_graph_weight():
    g = line(3)
    with pytest.raises(MixingValidationError) as err:
        half_pair(g, metropolis(complete(3)))
    assert any("part 1" in v for v in err.value.violations)


def test_validate_rejects_a_single_agent():
    # I - w has no nonzero eigenvalue on one node, so no smallest positive one;
    # no one-node graph reaches validate, since Graph refuses it.
    with pytest.raises(GraphError, match=r"^need n >= 2, got 1$"):
        Graph(1, ())


def test_theta_default_values():
    assert theta_default(0.0) == pytest.approx(1.0)
    assert theta_default(0.5) == pytest.approx(1.0)
    assert theta_default(-0.25) == pytest.approx(0.8)
    with pytest.raises(MixingValidationError):
        theta_default(-0.4)  # admissible interval empty below -1/3


def test_theta_boundary_three_quarters_needs_pd():
    g = random_connected(10, 0.5, 2)
    mp = half_pair(g, theta=0.75)
    assert mp.theta == 0.75
    relaxed = relax(mp.w, 1.0 / 3.0 - 1e-3)
    if relaxed.lambda_min <= -1.0:  # (I + relaxed)/2 is not positive definite
        with pytest.raises(MixingValidationError):
            half_pair(g, relaxed, theta=0.75)


def test_validate_two_node_hand_case():
    mp = half_pair(line(2), theta=0.8)
    assert np.allclose(mp.wbar.a, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)
    assert mp.wbar.lambda_min > 0


def test_validate_g_zero_for_half_pair():
    mp = half_pair(random_connected(10, 0.5, 3))
    assert np.abs(mp.g.a).max() <= 1e-14


def test_validate_wbar_identity_and_mtilde():
    g = random_connected(10, 0.5, 5)
    w = metropolis(g)
    wt = SymMatrix(0.3 * np.eye(10) + 0.7 * w.a, name="generic")
    mp = validate(w, wt, g, theta=0.9)
    eye = np.eye(10)
    lhs = wt.a
    rhs = mp.wbar.a - (1.0 - 0.9) * (eye - wt.a)
    assert np.abs(lhs - rhs).max() <= 1e-12
    ones = np.ones(10)
    assert np.abs(mp.mtilde.a @ ones + 0.9 * ones).max() <= 1e-10
    assert mp.h.lambda_min > 0
    assert mp.m.lambda_min >= -1e-10
    assert mp.g.lambda_min >= -1e-10


def test_theta_one_requires_pd_wt():
    # At theta = 1, w_bar = w_tilde, so a singular w_tilde must fail
    # validation of the derived w_bar with advice to shrink theta.
    g = line(2)
    w = relax(metropolis(g), 1.0 / 3.0)  # eigenvalues {-1/3, 1}
    wt = SymMatrix(w.a + 0.25 * (np.eye(2) - w.a), name="singular wt")  # eigenvalues {0, 1}
    with pytest.raises(MixingValidationError, match="smaller theta"):
        validate(w, wt, g, theta=1.0)
    # The default theta for the same pair stays strictly inside and succeeds.
    mp = validate(w, wt, g)
    assert mp.wbar.lambda_min > 0


def test_h_is_theta_free_combination():
    # w_bar + (theta - 1/2)(I - w_tilde) collapses to (I + w_tilde)/2 for any
    # theta, which is why the derived h never depends on theta.
    g = random_connected(10, 0.5, 7)
    w = metropolis(g)
    wt = SymMatrix(0.3 * np.eye(10) + 0.7 * w.a, name="generic")
    for theta in (0.8, 0.9, 1.0):
        mp = validate(w, wt, g, theta=theta)
        combo = mp.wbar.a + (theta - 0.5) * (np.eye(10) - wt.a)
        assert np.abs(combo - mp.h.a).max() <= 1e-12
        assert np.abs(mp.h.a - (np.eye(10) + wt.a) / 2.0).max() <= 1e-15


def test_matrix_dump_round_trip():
    w = metropolis(random_connected(6, 0.6, 1))
    text = dump_matrix_text(w)
    back = parse_matrix_text(text)
    assert np.array_equal(back.a, w.a)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), edge_prob=st.floats(0.3, 1.0), seed=st.integers(0, 2**16),
       relax_factor=st.floats(0.0, 1.0 / 3.0, exclude_max=True), lazy=st.floats(0.05, 0.5),
       theta=st.none() | st.floats(0.75, 1.0))
def test_validate_pseudo_inverses_are_moore_penrose(n, edge_prob, seed, relax_factor, lazy,
                                                     theta):
    g = random_connected(n, edge_prob, seed)
    w = relax(metropolis(g), relax_factor)
    wt = SymMatrix(lazy * np.eye(n) + (1.0 - lazy) * w.a, name="w_tilde")
    try:
        mp = validate(w, wt, g, theta=theta)
    except MixingValidationError:
        return
    _assert_moore_penrose(mp, w)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), topology=st.sampled_from(("random", "line", "complete")),
       seed=st.integers(0, 2**16), relax_factor=st.sampled_from((0.0, 0.15, 1.0 / 3.0 - 1e-3)),
       lazy=st.sampled_from((0.5, 0.3, 0.1)), theta=st.sampled_from((None, 0.75, "upper")))
def test_cholesky_sign_tests_change_no_decision_of_validate(n, topology, seed, relax_factor,
                                                            lazy, theta):
    # validate settles w_tilde's and w_bar's signs with Cholesky tests and
    # reads their spectra only where a test fails. Made to decompose instead,
    # it reaches the same theta, the same error text and the same bytes in
    # every derived matrix, both when w_tilde's and w_bar's tests always fail
    # (so it evaluates the exact expressions on their spectra) and when every
    # test is answered by its Jacobi eigenvalue. lazy = 0.1 on a relaxed graph
    # breaks part 4's w_tilde > -I/3; theta at the upper end of a w_tilde that
    # is not positive definite leaves w_bar singular.
    g = {"random": lambda: random_connected(n, 0.5, seed), "line": lambda: line(n),
         "complete": lambda: complete(n)}[topology]()
    w = relax(metropolis(g), relax_factor)
    wt = lazy * np.eye(n) + (1.0 - lazy) * w.a
    lam_min_wt = SymMatrix(wt).lambda_min
    if theta == "upper":
        theta = min(1.0, 1.0 / (1.0 - lam_min_wt))

    def outcome():
        try:
            mp = validate(SymMatrix(w.a, name=w.name), SymMatrix(wt, name="w_tilde"), g, theta)
        except MixingValidationError as exc:
            return str(exc)
        fields = (getattr(mp, f.name) for f in dataclasses.fields(mp))
        return mp.theta, [m.a.tobytes() for m in fields if isinstance(m, SymMatrix)]

    shortcut = outcome()
    for decomposing in (lambda self, floor: self.name == "g" and self.lambda_min >= floor,
                        lambda self, floor: self.lambda_min >= floor):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SymMatrix, "lambda_min_at_least", decomposing)
            assert outcome() == shortcut
    # The default theta is the interval's closed end 1 for a positive definite
    # w_tilde, else its midpoint.
    if theta is None and not isinstance(shortcut, str):
        upper = theta_default(lam_min_wt)
        assert shortcut[0] == (upper if lam_min_wt > 1e-8 else 0.5 * (0.75 + upper))


def _assert_moore_penrose(mp, w):
    n = w.dim
    half_iw = (np.eye(n) - w.a) / 2.0
    for a, pinv in ((mp.wt.a - w.a, mp.m.a), (np.eye(n) - w.a, mp.iw_pinv.a),
                    (half_iw, mp.mtilde.a + mp.theta * np.eye(n))):
        na, np_ = np.linalg.norm(a), np.linalg.norm(pinv)
        assert np.linalg.norm(a @ pinv @ a - a) <= 1e-10 * na * na * np_
        assert np.linalg.norm(pinv @ a @ pinv - pinv) <= 1e-10 * np_ * np_ * na
        assert np.linalg.norm(a @ pinv - (a @ pinv).T) <= 1e-10 * na * np_
        assert np.linalg.norm(pinv @ a - (pinv @ a).T) <= 1e-10 * na * np_
    ones = np.ones(n)
    assert np.abs(mp.mtilde.a @ ones + mp.theta * ones).max() <= 1e-10


@pytest.mark.parametrize("n", [55, 80])
def test_validate_passes_on_long_line_graphs(n):
    # The eigensolver's null vector of I - w is 1/sqrt(n) only to round-off;
    # unprojected, pinv(I - w) 1 grew past the 1e-10 m_tilde check from n = 55.
    mp = half_pair(line(n))
    _assert_moore_penrose(mp, mp.w)
    ones = np.ones(n)
    for pinv in (mp.m, mp.iw_pinv):
        assert np.abs(pinv.a @ ones).max() <= 1e-12


def test_validate_rejects_a_projection_that_leaves_the_ones_direction(monkeypatch):
    # m_tilde 1 = -theta 1 rests on the projection killing the all-ones
    # direction; one that leaves 1e-9 in every entry is caught.
    project = mixing._project
    monkeypatch.setattr(mixing, "_project", lambda a: project(a) + 1e-9)
    with pytest.raises(AssertionError, match=r"^m_tilde 1 != -theta 1 \(residual 8\.0\d\de-09\)$"):
        half_pair(line(4))


@pytest.mark.parametrize("w, factor, message", [
    (metropolis(line(4)), -0.1, "relax factor must be >= 0, got -0.1"),
    (SymMatrix(np.diag([0.5, 1.5])), 0.1,
     "relax input spectrum [0.500000, 1.500000] outside (-1, 1]"),
    (SymMatrix(np.diag([-1.5, 1.0])), 0.1,
     "relax input spectrum [-1.500000, 1.000000] outside (-1, 1]"),
    (SymMatrix(np.diag([-0.9, 1.0])), 0.5,
     "relaxed spectrum too wide: lambda_min = -1.850000 <= -5/3"),
])
def test_relax_rejects_what_it_cannot_map_into_the_relaxed_range(w, factor, message):
    with pytest.raises(MixingValidationError, match=f"^{re.escape(message)}$") as info:
        relax(w, factor)
    assert info.value.violations == [message]


@pytest.mark.parametrize("name", ["w", "w_tilde"])
def test_validate_reports_an_asymmetric_matrix_before_any_eigensolve(name):
    # SymMatrix symmetrizes its input, so only a matrix written after it was
    # built can be asymmetric. Parts 3 and 4 assume symmetry: validate must
    # name part 2 rather than fail inside an eigensolve.
    g = random_connected(10, 0.5, 2)
    w = metropolis(g)
    wt = SymMatrix(half_pair(g).wt.a, name="w_tilde")  # a fresh copy to write into
    mat = {"w": w, "w_tilde": wt}[name].a
    i, j = g.edges[0]
    mat.setflags(write=True)
    mat[i, j] += 1e-3
    with pytest.raises(MixingValidationError) as err:
        validate(w, wt, g)
    assert err.value.violations == [f"part 2 (symmetry): {name} is not symmetric"]
