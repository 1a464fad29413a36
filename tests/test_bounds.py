import numpy as np
import pytest

from ivbounds.bounds import (
    RESPONSE_TYPES,
    check_sharpness,
    lp_sharp_bounds,
    natural_bounds,
    response_type_ate,
    response_type_pi,
    theta_lower,
    theta_lower_linear,
    theta_profile,
    theta_upper,
    theta_upper_linear,
)


def uniform_pi():
    # each arm's four cells are equiprobable, so per-arm sums are 1
    return np.full((2, 2, 2), 0.25)


def dirichlet_law(rng):
    return rng.dirichlet(np.ones(16))


class TestThetaTemplates:
    def test_uniform_cells_lower(self):
        # Hand-evaluated: with every cell 1/4 the two constant-bearing
        # candidates give -1 + 2/4 = -0.5, the two-cell negated ones -2/4,
        # and the five-cell ones 1/4 - 4/4 = -0.75.
        th = theta_lower(uniform_pi())
        expected = np.array([-0.5, -0.5, -0.5, -0.5, -0.75, -0.75, -0.75, -0.75])
        np.testing.assert_allclose(th, expected, atol=1e-15)

    def test_uniform_cells_upper_mirror(self):
        # Outcome relabeling y -> 1-y maps lower candidates onto negated
        # upper candidates, so at the symmetric uniform law they mirror.
        np.testing.assert_allclose(theta_upper(uniform_pi()),
                                   -theta_lower(uniform_pi()), atol=1e-15)

    def test_affine_split(self):
        rng = np.random.default_rng(0)
        pi = rng.random((5, 2, 2, 2))
        np.testing.assert_allclose(
            theta_lower(pi) - theta_lower(np.zeros((2, 2, 2))),
            theta_lower_linear(pi), atol=1e-14)
        np.testing.assert_allclose(
            theta_upper(pi) - theta_upper(np.zeros((2, 2, 2))),
            theta_upper_linear(pi), atol=1e-14)

    def test_outcome_relabel_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pi = response_type_pi(dirichlet_law(rng))
            flipped = pi[::-1]  # swap y=0 and y=1 cells
            th_l = np.sort(theta_lower(pi))
            th_u = np.sort(theta_upper(flipped))
            np.testing.assert_allclose(th_l, np.sort(-th_u), atol=1e-12)

    def test_profile_selects_extremes(self):
        rng = np.random.default_rng(2)
        pi = response_type_pi(dirichlet_law(rng))
        prof = theta_profile(pi)
        assert prof.gamma_l == pytest.approx(np.max(prof.theta_l))
        assert prof.gamma_u == pytest.approx(np.min(prof.theta_u))
        assert prof.theta_l[prof.d_l - 1] == prof.gamma_l
        assert prof.theta_u[prof.d_u - 1] == prof.gamma_u

    def test_tie_breaks_to_smallest_index(self):
        prof = theta_profile(uniform_pi())
        assert prof.d_l == 1  # -0.5 attained by the first four candidates
        assert prof.theta_l[0] == prof.theta_l[3]

    def test_perfect_compliance_point_mass(self):
        # Compliers only, Y(0)=0, Y(1)=1: candidate 1 of each side is sharp
        # and the bounds collapse to the ATE of 1.
        pi = np.zeros((2, 2, 2))
        pi[0, 0, 0] = 1.0
        pi[1, 1, 1] = 1.0
        prof = theta_profile(pi)
        assert prof.gamma_l == pytest.approx(1.0)
        assert prof.gamma_u == pytest.approx(1.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            theta_lower(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            theta_lower(np.full((2, 2, 2), np.nan))


class TestNaturalBounds:
    def test_first_candidates(self):
        rng = np.random.default_rng(3)
        pi = response_type_pi(dirichlet_law(rng))
        bl, bu = natural_bounds(pi)
        assert bl == pytest.approx(theta_lower(pi)[0])
        assert bu == pytest.approx(theta_upper(pi)[0])

    def test_sandwich_sharp_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pi = response_type_pi(dirichlet_law(rng))
            prof = theta_profile(pi)
            bl, bu = natural_bounds(pi)
            assert bl <= prof.gamma_l + 1e-12
            assert prof.gamma_u <= bu + 1e-12

    def test_width_is_one(self):
        # The natural bounds always have width exactly 1 for laws on the
        # simplex: beta_u - beta_l = 2 - sum of the four defining cells... -
        # frozen property checked over draws.
        rng = np.random.default_rng(5)
        for _ in range(20):
            pi = response_type_pi(dirichlet_law(rng))
            bl, bu = natural_bounds(pi)
            width = bu - bl
            assert 0.0 <= width <= 2.0
            assert bl >= -1.0 - 1e-12 and bu <= 1.0 + 1e-12


class TestResponseTypes:
    def test_uniform_types_give_uniform_cells(self):
        pi = response_type_pi(np.full(16, 1 / 16))
        np.testing.assert_allclose(pi, uniform_pi(), atol=1e-15)

    def test_cells_are_conditional_laws(self):
        rng = np.random.default_rng(6)
        pi = response_type_pi(dirichlet_law(rng))
        np.testing.assert_allclose(pi.sum(axis=(0, 1)), [1.0, 1.0], atol=1e-12)

    def test_ate_of_point_masses(self):
        q = np.zeros(16)
        q[0b0001] = 1.0  # never-taker with Y(0)=0, Y(1)=1
        assert response_type_ate(q) == pytest.approx(1.0)
        q = np.zeros(16)
        q[0b0010] = 1.0  # Y(0)=1, Y(1)=0
        assert response_type_ate(q) == pytest.approx(-1.0)


class TestLpOracle:
    def test_uniform(self):
        lo, hi = lp_sharp_bounds(uniform_pi())
        prof = theta_profile(uniform_pi())
        assert lo == pytest.approx(prof.gamma_l, abs=1e-9)
        assert hi == pytest.approx(prof.gamma_u, abs=1e-9)

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = dirichlet_law(rng)
            pi = response_type_pi(q)
            prof = theta_profile(pi)
            lo, hi = lp_sharp_bounds(pi)
            assert lo == pytest.approx(prof.gamma_l, abs=1e-8)
            assert hi == pytest.approx(prof.gamma_u, abs=1e-8)
            assert lo - 1e-9 <= response_type_ate(q) <= hi + 1e-9

    def test_infeasible_law(self):
        # Exposure a=1 forced to produce outcome 1 under z=1 but outcome 0
        # under z=0: incompatible with any response-type distribution.
        pi = np.zeros((2, 2, 2))
        pi[1, 1, 1] = 1.0
        pi[0, 1, 0] = 1.0
        assert lp_sharp_bounds(pi) is None

    def test_degenerate_feasible_law(self):
        # Compliers with Y(0)=Y(1)=1 generate this law, so it is feasible
        # with a zero-width bound.
        pi = np.zeros((2, 2, 2))
        pi[1, 1, 1] = 1.0
        pi[1, 0, 0] = 1.0
        res = lp_sharp_bounds(pi)
        assert res is not None
        assert res[0] == pytest.approx(0.0, abs=1e-9)
        assert res[1] == pytest.approx(0.0, abs=1e-9)

    def test_off_simplex_rejected(self):
        assert lp_sharp_bounds(np.full((2, 2, 2), 0.2)) is None
        with pytest.raises(ValueError):
            lp_sharp_bounds(np.zeros((2, 2)))


class TestCheckSharpness:
    @pytest.mark.parametrize("alpha", [1.0, 0.1, 0.03])
    def test_dirichlet_corpus(self, alpha):
        laws = np.random.default_rng(11).dirichlet(np.full(16, alpha), size=400)
        result = check_sharpness(laws)
        assert result["ok"] and result["failures"] == []
        assert result["laws"] == 400 and result["max_lp_gap"] <= 1e-8

    def test_deterministic_compliance(self):
        # compliers only: A = Z, so the sharp bounds collapse onto the ATE
        compliers = (RESPONSE_TYPES[:, 0] == 0) & (RESPONSE_TYPES[:, 1] == 1)
        laws = np.zeros((60, 16))
        laws[:, compliers] = np.random.default_rng(12).dirichlet(
            np.full(4, 0.3), size=60)
        assert check_sharpness(laws)["ok"]
        for q in laws:
            prof = theta_profile(response_type_pi(q))
            assert prof.gamma_l == pytest.approx(response_type_ate(q), abs=1e-12)
            assert prof.gamma_u == pytest.approx(response_type_ate(q), abs=1e-12)

    def test_reports_failures(self):
        good = np.full(16, 1 / 16)
        bad = good.copy()
        bad[:2] = [-0.5, 0.5 + 1 / 16]  # not a law: no response-type law matches
        result = check_sharpness(np.array([good, bad]))
        assert not result["ok"]
        assert result["failures"] == ["law 1: oracle reported infeasible"]
        assert not check_sharpness(good[None], tol=-1.0)["ok"]
