import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import wigner_ldp
from wigner_ldp import oracles
from wigner_ldp.dyson import solve_dyson, stieltjes_total, support_edge
from wigner_ldp.profiles import ContinuousProfileSpec, VarianceProfile, discretize
from wigner_ldp.ratefn import (
    SimplexVector,
    _default_starts,
    _minimize_from,
    _sup_fhat,
    eval_F,
    eval_F_hat,
    eval_J,
    eval_K,
    eval_phi,
    f_hat_gradient,
    find_tilt_theta,
    outlier_equation_z,
    project_simplex,
    rate_function,
    rate_function_concave,
    sup_theta,
)

from conftest import random_profile


def test_simplex_vector_validation():
    with pytest.raises(ValueError):
        SimplexVector(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexVector(np.array([-0.1, 1.1]))
    v = SimplexVector.uniform(4)
    assert v.values.sum() == 1.0


def test_project_simplex():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 6))
        pv = project_simplex(v)
        assert pv.min() >= 0 and pv.sum() == pytest.approx(1.0, abs=1e-12)
        # projection of a point already on the simplex is itself
    w = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_simplex(w), w)


# -- J -------------------------------------------------------------------------


def test_J_seam_continuity(const_prof):
    G = stieltjes_total(const_prof, 3.0)
    left = eval_J(const_prof, 3.0, G / 2 * (1 - 5e-13))
    right = eval_J(const_prof, 3.0, G / 2 * (1 + 5e-13))
    assert abs(left - right) < 1e-10


def test_J_explicit_semicircle(const_prof):
    # J = theta x - 1/2 - log(2 theta)/2 - logpot(x)/2 in the first branch,
    # with the log potential from density quadrature
    L3, _ = quad(lambda y: np.log(3.0 - y) * oracles.sc_density(y), -2, 2, limit=200)
    val = eval_J(const_prof, 3.0, 0.5)
    assert val == pytest.approx(1.5 - 0.5 - 0.5 * np.log(1.0) - 0.5 * L3, abs=1e-6)


def test_J_vanishing_tilt(const_prof):
    assert eval_J(const_prof, 3.0, 0.0) == 0.0
    assert abs(eval_J(const_prof, 3.0, 1e-5)) < 1e-4


def test_J_domain(const_prof):
    with pytest.raises(ValueError):
        eval_J(const_prof, 1.5, 0.5)
    with pytest.raises(ValueError):
        eval_J(const_prof, 3.0, -0.1)


# -- phi -------------------------------------------------------------------------


def test_phi_single_block(const_prof):
    for th in (0.05, 0.5, 3.0):
        assert eval_phi(const_prof, th, 3.0, [1.0]).values.tolist() == [1.0]


def test_phi_plateau_psi_independent(wishart2):
    _, r = support_edge(wishart2)
    x = r + 0.4
    G = stieltjes_total(wishart2, x)
    th = 0.3 * G / 2
    a = eval_phi(wishart2, th, x, [1.0, 0.0]).values
    b = eval_phi(wishart2, th, x, [0.0, 1.0]).values
    assert np.allclose(a, b, atol=1e-12)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)


def test_phi_large_theta_tends_to_psi(block_14):
    _, r = support_edge(block_14)
    psi = np.array([0.25, 0.75])
    phi = eval_phi(block_14, 1e6, r + 0.5, psi).values
    assert np.allclose(phi, psi, atol=1e-5)


def test_phi_theta_zero_raises(const_prof):
    with pytest.raises(ValueError):
        eval_phi(const_prof, 0.0, 3.0, [1.0])


# -- K -------------------------------------------------------------------------


def test_K_constant_profile_theta_squared(const_prof):
    for th in (0.0, 0.7, 2.0):
        assert eval_K(const_prof, th, [1.0]) == pytest.approx(th * th, abs=1e-15)


def test_K_zero_tilt_at_weights(named_profiles):
    for prof in named_profiles:
        assert eval_K(prof, 0.0, prof.weights) == pytest.approx(0.0, abs=1e-15)


def test_K_hand_value():
    prof = VarianceProfile(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert eval_K(prof, 1.0, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)


def test_K_zero_mass_sentinel(block_14):
    assert eval_K(block_14, 1.0, [1.0, 0.0]) == -np.inf


# -- F and Fhat ------------------------------------------------------------------


def test_plateau_zero(named_profiles):
    rng = np.random.default_rng(2)
    for prof in named_profiles:
        _, r = support_edge(prof)
        for _ in range(100):
            x = r + rng.uniform(0.05, 1.0)
            psi = rng.dirichlet(np.ones(prof.p))
            th = rng.uniform(0, 0.5) * stieltjes_total(prof, x)
            assert abs(eval_F(prof, th, x, psi)) < 1e-8


def test_form_equality(named_profiles):
    rng = np.random.default_rng(3)
    for prof in named_profiles:
        _, r = support_edge(prof)
        for _ in range(100):
            x = r + rng.uniform(0.05, 1.0)
            psi = rng.dirichlet(np.ones(prof.p))
            th = rng.uniform(0.0, 2.0)
            G = stieltjes_total(prof, x)
            gap = eval_F_hat(prof, th, x, psi) - eval_F(prof, th + G / 2, x, psi)
            assert abs(gap) < 1e-9


def test_fhat_zero_at_zero(named_profiles):
    for prof in named_profiles:
        _, r = support_edge(prof)
        assert eval_F_hat(prof, 0.0, r + 0.3, prof.weights) == 0.0


def test_upper_envelope(named_profiles):
    # F(theta) <= -a (theta - theta_x)(theta - theta_x - x/a) above theta_x
    rng = np.random.default_rng(4)
    for prof in named_profiles:
        _, r = support_edge(prof)
        for _ in range(250):
            x = r + rng.uniform(0.05, 1.0)
            psi = rng.dirichlet(np.ones(prof.p))
            a = float(psi @ prof.sigma @ psi)
            if a <= 0:
                continue
            th_x = stieltjes_total(prof, x) / 2
            t = rng.uniform(0, 1.5 * x / a)
            env = -a * t * (t - x / a)
            assert eval_F(prof, th_x + t, x, psi) <= env + 1e-8


def test_gradient_matches_finite_differences(named_profiles):
    # central differences along simplex tangent directions e_k - e_l
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        prof = named_profiles[rng.integers(4)]
        if prof.p < 2:
            prof = random_profile(rng, pmax=4)
            if prof.p < 2:
                continue
        _, r = support_edge(prof)
        x = r + rng.uniform(0.1, 1.0)
        psi = rng.dirichlet(np.ones(prof.p) * 3.0)
        if psi.min() < 1e-3:
            continue
        th = rng.uniform(0.05, 1.5)
        g = f_hat_gradient(prof, th, x, psi)
        k, l = rng.choice(prof.p, size=2, replace=False)
        h = 1e-6
        e = np.zeros(prof.p)
        e[k], e[l] = h, -h
        fd = (eval_F_hat(prof, th, x, psi + e) - eval_F_hat(prof, th, x, psi - e)) / (2 * h)
        ref = g[k] - g[l]
        assert fd == pytest.approx(ref, rel=1e-5, abs=1e-9)
        checked += 1


# -- sup over theta ---------------------------------------------------------------


def test_sup_theta_goe(const_prof):
    th, val = sup_theta(const_prof, 3.0, [1.0])
    assert val == pytest.approx(oracles.goe_rate(3.0), abs=1e-6)
    assert th == pytest.approx((3 + np.sqrt(5)) / 4, abs=1e-6)


def test_sup_theta_near_edge_small(const_prof):
    _, r = support_edge(const_prof)
    _, val = sup_theta(const_prof, r + 1e-6, [1.0])
    assert 0.0 <= val <= 1e-3


def test_sup_theta_nonnegative(named_profiles):
    rng = np.random.default_rng(6)
    for prof in named_profiles:
        _, r = support_edge(prof)
        for _ in range(20):
            x = r + rng.uniform(0.02, 2.0)
            psi = rng.dirichlet(np.ones(prof.p))
            th, val = sup_theta(prof, x, psi)
            assert val >= 0.0
            assert th >= stieltjes_total(prof, x) / 2 - 1e-9


def test_sup_theta_degenerate_direction(wishart2):
    _, r = support_edge(wishart2)
    th, val = sup_theta(wishart2, r + 0.3, [1.0, 0.0])  # sigma_11 = 0
    assert np.isinf(val) and np.isinf(th)


# -- rate function -----------------------------------------------------------------


def test_rate_goe(const_prof):
    for x in (2.1, 2.5, 3.0, 4.0):
        rep = rate_function(const_prof, x)
        assert rep.I == pytest.approx(oracles.goe_rate(x), abs=1e-3)
        assert rep.I >= 0
        assert rep.theta_star >= stieltjes_total(const_prof, x) / 2 - 1e-9
        assert rep.I <= x * x / (4 * const_prof.mean_sigma) + 1e-6


def test_rate_below_and_at_edge(const_prof):
    _, r = support_edge(const_prof)
    assert np.isinf(rate_function(const_prof, 1.0).I)
    assert rate_function(const_prof, r).I == 0.0


def test_rate_block_identity(block_14, block_12):
    cases = [(block_14, 0.5, 1.0, 4.0, (2.9, 3.4, 4.1)), (block_12, 1 / 3, 1.0, 2.0, (2.4, 2.8, 3.2))]
    for prof, al, s1, s2, xs in cases:
        for x in xs:
            rep = rate_function(prof, x)
            ref = oracles.block_rate(
                al,
                lambda y: oracles.goe_rate(y / np.sqrt(s1)),
                lambda y: oracles.goe_rate(y / np.sqrt(s2)),
                x,
            )
            assert rep.I == pytest.approx(ref, abs=2e-3)


def test_rate_monotone_and_scaling(const_prof):
    xs = np.linspace(2.05, 3.4, 8)
    vals = [rate_function(const_prof, float(x)).I for x in xs]
    assert np.all(np.diff(vals) > 0)
    for i in range(len(xs)):
        for j in range(i, len(xs)):
            assert vals[i] <= (xs[i] ** 2 / xs[j] ** 2) * vals[j] + 1e-9


def test_rate_report_serializes(const_prof):
    import json

    rep = rate_function(const_prof, 2.5)
    d = json.loads(rep.to_json())
    assert d["x"] == 2.5 and d["I"] == rep.I


def test_rate_wishart_positive_and_bounded(wishart2):
    _, r = support_edge(wishart2)
    x = r + 0.4
    rep = rate_function(wishart2, x)
    assert 0 < rep.I <= x * x / (4 * wishart2.mean_sigma) + 1e-6
    assert rep.spread < 1e-8  # all feasible starts agree on this concave profile


# -- Newton theta_hat and the stacked descent ------------------------------------


def test_theta_hat_is_the_maximizer(named_profiles):
    # Fhat on a 4001-point grid over [0, x/a] never beats Fhat at theta_hat, and
    # h(theta_hat) = 0; Fhat and h are computed here from their definitions
    rng = np.random.default_rng(17)
    profs = list(named_profiles) + [random_profile(rng, pmax=5) for _ in range(6)]
    for prof in profs:
        _, r = support_edge(prof)
        w = prof.weights
        for _ in range(8):
            x = r + rng.choice([1e-4, 1e-2, rng.uniform(0.05, 3.0)])
            psi = rng.dirichlet(np.ones(prof.p) * rng.choice([0.3, 1.0, 5.0]))
            a = float(psi @ prof.sigma @ psi)
            if a <= 0:
                continue
            m = np.real(solve_dyson(prof, x).m)
            u = 2.0 * psi / (w * m)
            lin = float(np.sum(psi / m))

            def fhat(t):
                t = np.atleast_1d(t)
                return t * lin - t * t * a - 0.5 * np.log1p(np.outer(t, u)) @ w

            def h(t):
                return 0.5 * float(np.sum(w * u * u / (1.0 + t * u))) - 2.0 * a

            val, th = _sup_fhat(prof, m, psi[None], 0.0)
            th = float(th[0])
            grid_max = fhat(np.linspace(0.0, x / a, 4001)).max()
            top = float(fhat(th)[0])
            assert val[0] == pytest.approx(top, rel=1e-13, abs=1e-15)
            assert top >= grid_max - 4 * np.finfo(float).eps * (1.0 + abs(top))  # rounding only
            if h(0.0) > 0:
                assert abs(h(th)) <= 1e-12 * (1.0 + h(0.0))
            else:
                assert th == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_stacked_descent_rows_independent(seed):
    # each row's trajectory is bit-identical alone, in the stack and permuted
    rng = np.random.default_rng(seed)
    prof = random_profile(rng, pmax=5)
    _, r = support_edge(prof)
    x = r + rng.uniform(0.05, 1.0)
    starts = _default_starts(prof, 8, seed)
    stacked = _minimize_from(prof, x, starts, 1e-8, 1e-9)
    perm = rng.permutation(len(starts))
    permuted = _minimize_from(prof, x, starts[perm], 1e-8, 1e-9)
    for full, other in zip(stacked, permuted):
        assert np.array_equal(full[perm], other)
    for i in range(len(starts)):
        alone = _minimize_from(prof, x, starts[i : i + 1], 1e-8, 1e-9)
        for full, one in zip(stacked, alone):
            assert np.array_equal(full[i : i + 1], one)


def test_rate_metamorphic_relations():
    # sigma -> c sigma: r -> sqrt(c) r and I_{c sigma}(sqrt(c) x) = I(x); a block
    # permutation changes nothing; I(x) <= x^2 / (4a)
    rng = np.random.default_rng(41)
    for _ in range(6):
        prof = random_profile(rng, pmax=4)
        c = rng.uniform(0.3, 3.0)
        scaled = VarianceProfile(prof.weights, c * prof.sigma)
        perm = rng.permutation(prof.p)
        permuted = VarianceProfile(prof.weights[perm], prof.sigma[np.ix_(perm, perm)])
        _, r = support_edge(prof)
        # the edge is known to its bisection bracket plus the predicate bias (< 1e-4)
        assert support_edge(scaled)[1] == pytest.approx(np.sqrt(c) * r, abs=1e-4 + 1e-6 * (1 + c * prof.max_sigma))
        for d in (0.1, 0.7):
            x = r + d
            I = rate_function(prof, x).I
            assert rate_function(scaled, np.sqrt(c) * x).I == pytest.approx(I, abs=1e-9)
            assert rate_function(permuted, x).I == pytest.approx(I, abs=1e-9)
            assert I <= x * x / (4.0 * prof.mean_sigma)


# -- exchanged min-max -------------------------------------------------------------


def test_concave_exchange_wishart(wishart2):
    _, r = support_edge(wishart2)
    for dx in (0.15, 0.4):
        x = r + dx
        assert rate_function_concave(wishart2, x) == pytest.approx(
            rate_function(wishart2, x).I, abs=2e-3
        )


def test_concave_matches_goe(const_prof):
    assert rate_function_concave(const_prof, 3.0) == pytest.approx(
        oracles.goe_rate(3.0), abs=1e-6
    )


def test_concave_precondition(block_14):
    with pytest.raises(ValueError):
        rate_function_concave(block_14, 3.0)


def test_wishart_sup_K_image_identity(wishart2):
    # sup over the phi-image equals the unconstrained sup of K over the simplex
    from wigner_ldp.ratefn import _sup_K_over_psi

    _, r = support_edge(wishart2)
    x = r + 0.3
    G = stieltjes_total(wishart2, x)
    for th_hat in (0.1, 0.5, 1.0):
        theta = th_hat + G / 2
        lhs = _sup_K_over_psi(wishart2, theta, x)
        grid = np.linspace(1e-9, 1 - 1e-9, 10001)
        rhs = max(eval_K(wishart2, theta, np.array([a, 1 - a])) for a in grid)
        assert lhs == pytest.approx(rhs, abs=1e-7)


# -- outliers ----------------------------------------------------------------------


def test_outlier_bbp_reduction(const_prof):
    for th in (0.7, 1.0, 1.6):
        z = outlier_equation_z(const_prof, th, 3.0, [1.0])
        assert z == pytest.approx(oracles.bbp_outlier(th), abs=1e-7)


def test_outlier_subcritical_returns_edge(const_prof):
    _, r = support_edge(const_prof)
    assert outlier_equation_z(const_prof, 0.3, 3.0, [1.0]) == r


def test_tilt_round_trip(named_profiles):
    rng = np.random.default_rng(8)
    for prof in named_profiles:
        _, r = support_edge(prof)
        x = r + 0.5
        psi = rng.dirichlet(np.ones(prof.p))
        if float(psi @ prof.sigma @ psi) <= 0:
            continue
        th = find_tilt_theta(prof, x, psi)
        assert outlier_equation_z(prof, th, x, psi) == pytest.approx(x, abs=1e-8)


def test_tilt_monotone_in_x(const_prof):
    ths = [find_tilt_theta(const_prof, x, [1.0]) for x in (2.5, 3.0, 3.5, 4.0)]
    assert np.all(np.diff(ths) > 0)
    # scalar oracle: theta* solves 2 theta + 1/(2 theta) = x
    assert ths[1] == pytest.approx((3 + np.sqrt(5)) / 4, abs=1e-8)


def test_tilt_needs_positive_form(wishart2):
    with pytest.raises(ValueError):
        find_tilt_theta(wishart2, 2.0, [1.0, 0.0])


# -- discretized continuous profiles ------------------------------------------------


def test_discretization_rate_converges():
    spec = ContinuousProfileSpec.from_function(lambda s, t: s + t, 64)
    x = 3.0
    vals = {}
    for p in (2, 4, 8):
        prof, _ = discretize(spec, p)
        vals[p] = rate_function(prof, x).I
    d1 = abs(vals[2] - vals[4])
    d2 = abs(vals[4] - vals[8])
    # refinement roughly quarters the error for this smooth profile
    assert d2 <= 0.6 * d1


# -- call-history independence ------------------------------------------------------

_HISTORY_SCRIPT = """
import sys
from wigner_ldp.dyson import log_potential, stieltjes_inverse, stieltjes_total
from wigner_ldp.profiles import wishart_profile
from wigner_ldp.ratefn import rate_function

prof = wishart_profile(2.0)
for x in map(float, sys.argv[1:]):
    G = stieltjes_total(prof, x)
    vals = (rate_function(prof, x).I, log_potential(prof, x), G, stieltjes_inverse(prof, G))
    print(repr(x), *map(repr, vals))
"""


def _values_in_order(xs):
    """{x: line of I, log potential, G, G^{-1}(G)} from a fresh interpreter,
    so that every order starts with empty memos."""
    paths = [str(Path(wigner_ldp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run(
        [sys.executable, "-c", _HISTORY_SCRIPT, *map(repr, xs)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return {line.split()[0]: line for line in out.splitlines()}


def test_values_independent_of_call_order():
    forward = _values_in_order([1.6, 2.3])
    backward = _values_in_order([2.3, 1.6])
    assert set(forward) == {"1.6", "2.3"}
    assert forward == backward
