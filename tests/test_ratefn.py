import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import wigner_ldp
from wigner_ldp import dyson, oracles, ratefn
from wigner_ldp.dyson import (
    _solve_real_at, log_potential, solve_dyson, stieltjes_inverse, stieltjes_total, support_edge,
)
from wigner_ldp.profiles import ContinuousProfileSpec, UsageError, VarianceProfile, discretize, wishart_profile
from wigner_ldp.ratefn import (
    _EPS_FLOOR,
    _default_starts,
    _descend_simplex,
    _fhat_grad,
    _minimize_from,
    _nu,
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
    rate_sweep,
    sup_theta,
)

from conftest import random_profile, split_block


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


def _below_seam_cases(named_profiles):
    """(profile, x, theta) with 2 theta < G(x), so that J and phi move to
    v = G^{-1}(2 theta) > x."""
    for prof in named_profiles:
        _, r = support_edge(prof)
        for x in (r + 0.05, r + 0.5, r + 3.0):
            G = stieltjes_total(prof, x)
            for frac in (0.05, 0.37, 0.93):
                yield prof, x, frac * G / 2


def test_J_and_phi_below_the_seam_match_the_solve_at_v(named_profiles):
    # below the seam J and phi take m(v) from the bordered solve of G^{-1};
    # the forms through log_potential(v) and the real solve at v agree to rounding
    rng = np.random.default_rng(5)
    for prof, x, th in _below_seam_cases(named_profiles):
        v = stieltjes_inverse(prof, 2 * th)
        J = eval_J(prof, x, th)
        ref = th * v - 0.5 - 0.5 * np.log(2 * th) - 0.5 * log_potential(prof, v)
        assert abs(J - ref) <= 1e-13 * (1 + abs(J))
        vals = prof.weights * _solve_real_at(prof, v) / (2 * th)
        phi = eval_phi(prof, th, x, rng.dirichlet(np.ones(prof.p)))
        assert np.max(np.abs(phi - vals / vals.sum())) <= 1e-13


def _count_real_solves(monkeypatch, calls):
    """Route every real-axis solve past the one-x memo, recording in calls
    every x it solves."""
    solve, unmemoized = dyson._solve_real, dyson._solve_real_at.__wrapped__
    for module in (dyson, ratefn):
        monkeypatch.setattr(module, "_solve_real", lambda p, xs: calls.extend(xs) or solve(p, xs))
        monkeypatch.setattr(module, "_solve_real_at", unmemoized)


def test_tilt_point_inside_the_edge_margin(named_profiles):
    # x in (r, r + margin] and 2 theta in [G(r + margin), G(x)): the bordered
    # solve finds v in (x, r + margin) with G(v) = 2 theta, and J, phi and F
    # take it (they raised ValueError when 2 theta >= G(r + margin))
    for prof in named_profiles:
        _, r = support_edge(prof)
        lo = r + dyson._edge_margin(prof)
        x = r + 0.25 * (lo - r)  # r + 5e-10 on the constant profile
        th = (stieltjes_total(prof, x) + stieltjes_total(prof, lo)) / 4
        (v,), (m,) = dyson._inverse_solve(prof, [2 * th])
        assert x < v < lo
        # G(v) = 2 theta through the m(v) that solves the Dyson equation at v
        assert abs(prof.weights @ m - 2 * th) <= 1e-12 and dyson._residual(prof, v, m) <= 1e-12
        if prof.p == 1:  # G^-1(g) = g + 1/g on the semicircle
            assert v == pytest.approx(2 * th + 1 / (2 * th), rel=1e-15)
        psi = np.full(prof.p, 1.0 / prof.p)
        assert np.isfinite([eval_J(prof, x, th), eval_F(prof, th, x, psi)]).all()
        assert eval_phi(prof, th, x, psi).sum() == pytest.approx(1.0)


def test_J_below_the_seam_makes_no_real_solve_at_v(named_profiles, monkeypatch):
    # one bordered solve gives v and m(v): the real solves are the one at x
    # and the bordered solve's start
    calls = []
    _count_real_solves(monkeypatch, calls)
    for prof, x, th in _below_seam_cases(named_profiles):
        calls.clear()
        eval_J(prof, x, th)
        assert len(calls) == 2


def test_J_domain(const_prof):
    with pytest.raises(ValueError):
        eval_J(const_prof, 1.5, 0.5)
    with pytest.raises(ValueError):
        eval_J(const_prof, 3.0, -0.1)


# -- phi -------------------------------------------------------------------------


def test_phi_single_block(const_prof):
    for th in (0.05, 0.5, 3.0):
        assert eval_phi(const_prof, th, 3.0, [1.0]).tolist() == [1.0]


def test_phi_plateau_psi_independent(wishart2):
    _, r = support_edge(wishart2)
    x = r + 0.4
    G = stieltjes_total(wishart2, x)
    th = 0.3 * G / 2
    a = eval_phi(wishart2, th, x, [1.0, 0.0])
    b = eval_phi(wishart2, th, x, [0.0, 1.0])
    assert np.allclose(a, b, atol=1e-12)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)


def test_phi_large_theta_tends_to_psi(block_14):
    _, r = support_edge(block_14)
    psi = np.array([0.25, 0.75])
    phi = eval_phi(block_14, 1e6, r + 0.5, psi)
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


# -- row cores -------------------------------------------------------------------


def _row_stacks(prof, rng, n=18):
    """(xs, thetas, psis) with rows below the seam 2 theta = G(x), on it,
    above it, inside _SEAM_TOL below it, just beyond _SEAM_TOL, and theta = 0."""
    _, r = support_edge(prof)
    xs = r + rng.uniform(1e-3, 2.0, n)
    half_G = np.array([stieltjes_total(prof, x) for x in xs]) / 2
    kind = np.arange(n) % 6
    thetas = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
        [rng.uniform(0.05, 0.95, n) * half_G, half_G, rng.uniform(1.05, 3.0, n) * half_G,
         half_G - 0.25 * ratefn._SEAM_TOL, half_G - ratefn._SEAM_TOL],
        0.0,
    )
    return xs, thetas, rng.dirichlet(np.ones(prof.p), size=n)


def _strided(a):
    """A copy of a whose last axis is a non-contiguous view."""
    return np.repeat(a, 2, axis=-1)[..., ::2]


def test_row_cores_are_the_scalar_functions_bitwise(const_prof, block_14, wishart2, grid3):
    # each row of a stack is its own one-row call, on every side of the seam,
    # and keeps its bits in a permuted and in a strided copy of the stack
    rng = np.random.default_rng(41)
    for prof in (const_prof, block_14, wishart2, grid3):
        xs, thetas, psis = _row_stacks(prof, rng)
        pos, ctx = thetas > 0.0, ratefn._ctx(prof, xs)
        J = ratefn._J_rows(prof, thetas, ctx)
        L = dyson._free_energy(prof, xs, ctx[1])
        perm = rng.permutation(len(xs))
        for c, th, rows in ((ratefn._take(ctx, perm), thetas[perm], perm),
                            (tuple(_strided(a) for a in ctx), _strided(thetas), slice(None))):
            assert np.array_equal(ratefn._J_rows(prof, th, c), J[rows])
            assert np.array_equal(dyson._free_energy(prof, c[0], c[1]), L[rows])
        F = ratefn._F_rows(prof, thetas, ctx, psis)
        F_hat = ratefn._F_hat_rows(prof, thetas, ctx, psis)
        phi = ratefn._phi_rows(prof, thetas[pos], ratefn._take(ctx, pos), psis[pos])
        for k, (x, th, psi) in enumerate(zip(xs.tolist(), thetas.tolist(), psis)):
            assert J[k] == eval_J(prof, x, th) and F[k] == eval_F(prof, th, x, psi)
            assert F_hat[k] == eval_F_hat(prof, th, x, psi) and L[k] == log_potential(prof, x)
            if 2 * th >= stieltjes_total(prof, x) - ratefn._SEAM_TOL and th > 0:
                # J at v = x is the closed form over the log potential, with numpy's log
                assert J[k] == th * x - 0.5 - 0.5 * np.log(2 * th) - 0.5 * log_potential(prof, x)
        assert (J[~pos] == 0.0).all() and (F[~pos] == 0.0).all()
        for k, (x, th, psi) in enumerate(zip(xs[pos].tolist(), thetas[pos].tolist(), psis[pos])):
            assert (phi[k] == eval_phi(prof, th, x, psi)).all()
        phis, ths = phi, thetas[pos]
        if prof.p > 1:  # a mass vector with an empty block: the entropy diverges
            phis, ths = np.vstack([phi, np.eye(prof.p)[0]]), np.append(ths, 0.7)
        K = ratefn._K_rows(prof, ths, phis)
        assert [eval_K(prof, th, v) for th, v in zip(ths.tolist(), phis)] == K.tolist()
        perm = rng.permutation(len(ths))
        assert np.array_equal(ratefn._K_rows(prof, ths[perm], phis[perm]), K[perm])
        assert np.array_equal(ratefn._K_rows(prof, _strided(ths), _strided(phis)), K)
        assert np.isfinite(K[: len(phi)]).all() and (prof.p == 1 or K[-1] == -np.inf)


def test_a_stack_refuses_a_bad_row_as_the_one_row_call_does(block_14):
    _, r = support_edge(block_14)
    xs, psis = [r + 0.5, r - 0.1, r + 1.0], np.full((3, 2), 0.5)
    with pytest.raises(UsageError) as one:
        eval_F(block_14, 0.3, r - 0.1, psis[1])
    with pytest.raises(UsageError) as many:  # the context the cores take
        ratefn._ctx(block_14, xs)
    assert str(many.value) == str(one.value)
    # a row that is not a mass vector, as mass_vector refuses it; at theta = 0 too
    bad = [[0.5, 0.5], [1.5, -0.5], [0.5, 0.5]]
    with pytest.raises(UsageError) as one:
        block_14.mass_vector(bad[1])
    for theta in (0.3, 0.0):
        with pytest.raises(UsageError) as many:
            ratefn._F_rows(block_14, [theta] * 3, ratefn._ctx(block_14, [r + 0.5] * 3), bad)
        assert str(many.value) == str(one.value)


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
        # theta = 0 is exactly 0 above the edge and is refused at or below it
        assert eval_F(prof, 0.0, r + 0.3, psi) == 0.0
        for x in (r, r - 0.5):
            with pytest.raises(UsageError):
                eval_F(prof, 0.0, x, psi)


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


def test_rate_just_above_edge(const_prof):
    # 5e-6 above the edge, where I = (2/3) (5e-6)^(3/2) to leading order
    x = 2.0 + 5e-6
    assert rate_function(const_prof, x).I == pytest.approx(oracles.goe_rate(x), rel=1e-3)


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


@pytest.mark.parametrize("name", ["const_prof", "block_14", "wishart2", *(f"random{k}" for k in range(5))])
def test_rate_derivative_is_the_shifted_tilt(name, request):
    # envelope theorem at the saddle point: dI/dx = theta* - G(x)/2, with
    # theta* the report's tilt; on the constant profile that is the GOE rate's
    # derivative sqrt(x^2 - 4)/2
    if name.startswith("random"):
        prof = random_profile(np.random.default_rng(int(name[6:])), pmax=3)
    else:
        prof = request.getfixturevalue(name)
    h = 1e-4
    _, r = support_edge(prof)
    for x in (r + 0.3, r + 1.0, r + 2.5):
        lo, mid, hi = (rate_function(prof, x + d) for d in (-h, 0.0, h))
        slope = mid.theta_star - stieltjes_total(prof, x) / 2
        assert (hi.I - lo.I) / (2 * h) == pytest.approx(slope, abs=1e-6)
        if name == "const_prof":
            assert slope == pytest.approx(np.sqrt(x * x - 4) / 2, abs=1e-6)


def _simplex_grid(p):
    """Mass vectors on a grid of the simplex: 2,001 points for p = 2, step 1/300 for p = 3."""
    if p == 2:
        a = np.linspace(0.0, 1.0, 2001)
        return np.column_stack([a, 1.0 - a])
    i, j = np.divmod(np.arange(301 * 301), 301)
    keep = i + j <= 300
    return np.column_stack([i[keep], j[keep], 300 - i[keep] - j[keep]]) / 300.0


def test_rate_is_at_most_the_grid_minimum(wishart2, block_14, grid3):
    # the descent's minimum over psi is no worse than the best point of a fine
    # grid of the simplex, on profiles with p = 2 and p = 3
    rng = np.random.default_rng(13)
    pc3 = VarianceProfile([0.2, 0.5, 0.3], [[1.5, 0.4, 0.2], [0.4, 1.0, 0.7], [0.2, 0.7, 2.0]])
    two = VarianceProfile(rng.dirichlet(np.ones(2) * 5), [[0.4, 1.3], [1.3, 1.9]])
    for prof in (wishart2, block_14, two, grid3, pc3):
        psi = _simplex_grid(prof.p)
        _, r = support_edge(prof)
        for x in (r + 0.2, r + 1.0, r + 3.0):
            grid_min = _sup_fhat(prof, _solve_real_at(prof, x), psi, 0.0)[0].min()
            assert rate_function(prof, x).I <= grid_min + 1e-9, (prof.p, x)


def test_rate_wishart_positive_and_bounded(wishart2):
    _, r = support_edge(wishart2)
    x = r + 0.4
    rep = rate_function(wishart2, x)
    assert 0 < rep.I <= x * x / (4 * wishart2.mean_sigma) + 1e-6
    assert rep.spread < 1e-8  # all feasible starts agree on this concave profile


def test_default_starts_rows(wishart2):
    # the weights; a vertex per block with a variance of its own, the midpoint with its
    # first partner for a zero-variance block, nothing for an isolated block; then 8
    # Dirichlet draws, each row as one dirichlet call of default_rng(0) gives it
    w = wishart2.weights.tolist()
    assert _default_starts(wishart2)[:-8].tolist() == [w, [0.5, 0.5], [0.5, 0.5]]
    prof = VarianceProfile([0.25] * 4, [[1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0], [0, 2, 0, 3]])
    rows = _default_starts(prof)
    assert rows[:-8].tolist() == [[0.25] * 4, [1, 0, 0, 0], [0, 0.5, 0, 0.5], [0, 0, 0, 1]]
    rng = np.random.default_rng(0)
    assert np.array_equal(rows[-8:], [rng.dirichlet(np.ones(4)) for _ in range(8)])


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
    starts = np.vstack([_default_starts(prof), rng.dirichlet(np.ones(prof.p), 8)])
    m = _solve_real_at(prof, x)
    stacked = _minimize_from(prof, m[None], starts)
    perm = rng.permutation(len(starts))
    permuted = _minimize_from(prof, m[None], starts[perm])
    for full, other in zip(stacked, permuted):
        assert np.array_equal(full[perm], other)
    for i in range(len(starts)):
        alone = _minimize_from(prof, m[None], starts[i : i + 1])
        for full, one in zip(stacked, alone):
            assert np.array_equal(full[i : i + 1], one)
    # a strided (non-contiguous) view of the rows reaches the row kernels as it is
    rows = project_simplex(starts)
    strided = np.repeat(rows, 2, axis=1)[:, ::2]
    for full, other in zip(_sup_fhat(prof, m, rows, 1e-8), _sup_fhat(prof, m, strided, 1e-8)):
        assert np.array_equal(full, other)


def _assert_same_report(a, b):
    """Every field of two rate reports equal, arrays bit for bit."""
    assert vars(a).keys() == vars(b).keys()
    for key, val in vars(a).items():
        if isinstance(val, np.ndarray):
            assert np.array_equal(val, getattr(b, key)), key
        else:
            assert val == getattr(b, key), key


def test_sweep_matches_one_x_at_a_time(named_profiles):
    # a sweep's report at x is the report of x alone, whatever the other xs
    # are, their order, repeats, and xs below and at the edge among them
    rng = np.random.default_rng(8)
    profs = list(named_profiles) + [random_profile(rng, pmax=5) for _ in range(3)]
    for prof in profs:
        _, r = support_edge(prof)
        xs = [r + 0.05, r + 0.5, r + 1.7, r - 1.0, r, r + 0.5, -np.inf, r + 3.0]
        alone = [rate_function(prof, x) for x in xs]
        for order in (np.arange(len(xs)), rng.permutation(len(xs)), [1, 1, 6, 1]):
            sweep = rate_sweep(prof, [xs[i] for i in order])
            assert len(sweep) == len(order)
            for i, rep in zip(order, sweep):
                _assert_same_report(rep, alone[i])
        assert [rep.I for rep in alone[3:5]] == [np.inf, 0.0]


def test_a_repeated_x_is_solved_and_descended_once(block_14, monkeypatch):
    # six copies of one x hand the real solve one row and the descent one x, and
    # come back as six separate reports equal to the one-x report; two xs
    # repeated make one batch of two rows
    support_edge(block_14)
    dyson._solve_real_at.cache_clear()
    solved, descended, solve, minimize = [], [], dyson._solve_real, ratefn._minimize_from
    for mod in (ratefn, dyson):
        monkeypatch.setattr(mod, "_solve_real", lambda p, xs: solved.extend(xs) or solve(p, xs))
    monkeypatch.setattr(ratefn, "_minimize_from",
                        lambda p, M, starts: descended.append(len(M)) or minimize(p, M, starts))
    sweep = rate_sweep(block_14, [3.0] * 6)
    assert solved == [3.0] and descended == [1]
    one = rate_function(block_14, 3.0)
    assert len({id(rep) for rep in sweep}) == len({id(rep.psi_star) for rep in sweep}) == 6
    for rep in sweep:
        _assert_same_report(rep, one)
    solved.clear()
    rate_sweep(block_14, [3.0, 4.0, 3.0, 0.5, 4.0, 3.0])
    assert solved == [3.0, 4.0]


def test_sweep_matches_one_x_at_a_time_across_chunks():
    # a 4-x sweep at p = 128 holds more rows x p than one chunk of the descent
    spec = ContinuousProfileSpec.from_function(lambda s, t: 1 + 2 * np.exp(-4 * (s - t) ** 2) + s * t, 256)
    prof = discretize(spec, 128)[0]
    _, r = support_edge(prof)
    xs = [r + 0.6, r + 0.3, r + 0.5, r + 0.4]
    rows = len(_default_starts(prof)) * prof.p
    assert ratefn._SWEEP_ENTRIES // rows < len(xs)  # more than one chunk
    sweep = rate_sweep(prof, xs)
    for x, rep in zip(xs, sweep):
        _assert_same_report(rep, rate_function(prof, x))


def test_sweep_takes_x_up_to_its_limit(named_profiles):
    # I(x)/x^2 is at its large-x limit from x = 1e10 on, and still is at _X_MAX with no
    # floating-point warning; the next float above _X_MAX is rejected
    for prof in named_profiles:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near, far = rate_sweep(prof, [1e10, ratefn._X_MAX])
        assert far.I / far.x**2 == pytest.approx(near.I / near.x**2, rel=1e-12)
        with pytest.raises(UsageError, match=r"at most 1e\+30"):
            rate_sweep(prof, [3.0, np.nextafter(ratefn._X_MAX, np.inf)])


def _descent_profiles(named_profiles):
    """The named profiles and the first six draws of seed 11 with p > 1 (a
    p = 1 row is stationary at its start)."""
    rng = np.random.default_rng(11)
    draws = []
    while len(draws) < 6:
        prof = random_profile(rng, pmax=6)
        if prof.p > 1:
            draws.append(prof)
    return list(named_profiles) + draws


def _long_run_I(prof, x):
    """min over rate_function's starts of the descent run 20,000 steps a row
    with tol 0, so that a row stops only where no step lowers its value."""
    m = _solve_real_at(prof, x)
    vals = _descend_simplex(
        lambda psi, _: _sup_fhat(prof, m, psi, _EPS_FLOOR),
        lambda psi, th, _: _fhat_grad(prof, m, th, psi),
        project_simplex(_default_starts(prof)), 20000, 0.0,
    )[1]
    return vals[np.isfinite(vals)].min()


def test_rate_reaches_the_long_run_reference(named_profiles):
    spec = ContinuousProfileSpec.from_function(lambda s, t: 1 + 2 * np.exp(-4 * (s - t) ** 2) + s * t, 256)
    grid = [discretize(spec, p)[0] for p in (16, 32)]
    for prof in _descent_profiles(named_profiles) + grid:
        _, r = support_edge(prof)
        for x in (r + 0.5, r + 3.0):
            assert rate_function(prof, x).I <= _long_run_I(prof, x) + 1e-10


def test_no_start_stops_at_the_cap(named_profiles):
    # every feasible start meets a stopping test; a p = 1 start takes no step
    for prof in _descent_profiles(named_profiles):
        _, r = support_edge(prof)
        for x in (r + 0.5, r + 3.0, r + 6.0):
            rep = rate_function(prof, x)
            assert rep.diagnostics["capped_starts"] == 0
            assert 0 < rep.diagnostics["converged_starts"] <= rep.starts_used
    for x in (2.5, 8.0):
        assert rate_function(named_profiles[0], x).diagnostics["iterations"] == 0


def test_descent_stops_rows_at_the_iteration_cap():
    # 8 blocks of the continuum test's sigma at r + 0.5, from rate_function's
    # 17 start rows: 3 steps leave every row running, 400 leave none
    spec = ContinuousProfileSpec.from_function(lambda s, t: 1 + 2 * np.exp(-4 * (s - t) ** 2) + s * t, 64)
    prof = discretize(spec, 8)[0]
    m = _solve_real_at(prof, support_edge(prof)[1] + 0.5)
    starts = project_simplex(_default_starts(prof))

    def descend(max_iter):
        return _descend_simplex(
            lambda psi, _: _sup_fhat(prof, m, psi, _EPS_FLOOR),
            lambda psi, th, _: _fhat_grad(prof, m, th, psi),
            starts, max_iter, 1e-9,
        )

    _, vals, _, its, capped = descend(3)
    assert len(starts) == 17 and capped.all() and np.all(its == 3)
    assert np.all(vals <= _sup_fhat(prof, m, starts, _EPS_FLOOR)[0])
    assert not descend(400)[4].any()


def _sequential_descent(f, grad, psi, max_iter, tol):
    """`_descend_simplex` with one trial length per call of f: each row halves
    its length t until the Armijo test passes, it stops moving or it has tried
    40 lengths.  Returns (psi, values, aux, iterations, capped) and the number
    of lengths each row tried at each step."""
    psi = np.array(psi, dtype=float)
    val, aux = f(psi, np.arange(len(psi)))
    step = np.ones(len(psi))
    s, g_last = np.zeros_like(psi), np.zeros_like(psi)
    its = np.zeros(len(psi), dtype=int)
    act = np.isfinite(val)
    tried = []
    for k in range(max_iter + 1):
        idx = np.flatnonzero(act)
        if idx.size == 0:
            break
        x0 = psi[idx]
        g = grad(x0, aux[idx], idx)
        pg = project_simplex(x0 - g) - x0
        run = np.sqrt(ratefn._rowsum(pg * pg)) > 0.1 * tol
        act[idx[~run]] = False
        if k == max_iter:
            break
        idx, x0, g = idx[run], x0[run], g[run]
        v0, t = val[idx], 2.0 * step[idx]
        y = g - g_last[idx]
        sy = ratefn._rowsum(s[idx] * y)
        bb = (its[idx] > 0) & (sy > 0.0)
        t[bb] = sy[bb] / ratefn._rowsum(y[bb] ** 2)
        its[idx] += 1
        g_last[idx] = g
        gain = np.full(idx.size, -np.inf)
        j = np.arange(idx.size)
        lengths = np.zeros(idx.size, dtype=int)
        for _ in range(40):
            lengths[j] += 1
            cand = project_simplex(x0[j] - t[j, None] * g[j])
            nd = np.sqrt(ratefn._rowsum((cand - x0[j]) ** 2))
            moved = nd >= 1e-13
            cval, caux = f(cand, idx[j])
            ok = moved & (cval <= v0[j] - 1e-4 * nd * nd / np.maximum(t[j], 1e-300))
            acc = j[ok]
            gain[acc] = v0[acc] - cval[ok]
            rows = idx[acc]
            s[rows] = cand[ok] - x0[acc]
            psi[rows], val[rows], aux[rows], step[rows] = cand[ok], cval[ok], caux[ok], t[acc]
            j = j[moved & ~ok]
            if j.size == 0:
                break
            t[j] /= 2.0
        tried.extend(lengths)
        act[idx[~(gain >= 1e-3 * tol)]] = False
    return (psi, val, aux, its, act), np.array(tried)


def _sequential_into(tried):
    """`_sequential_descent` in the place of `_descend_simplex`, adding the
    lengths each row tried to the list tried."""
    def descend(*args):
        out, lengths = _sequential_descent(*args)
        tried.extend(lengths)
        return out
    return descend


def _assert_same_rows(a, b):
    for one, other in zip(a, b, strict=True):
        assert one.dtype == other.dtype and np.array_equal(one, other)


def test_stacked_backtracking_matches_sequential_halving(named_profiles, monkeypatch):
    # every output of the descent, in rate sweeps and in the exchanged order's
    # ascent of K, is the same bits as with one-at-a-time halving; some rows go
    # past the first two blocks (9 halvings or more)
    tried = []
    for prof in _descent_profiles(named_profiles):
        _, r = support_edge(prof)
        M, starts = ratefn._ctx(prof, [r + 1e-4, r + 0.05, r + 3.0, 1e6])[1], _default_starts(prof)
        stacked = _minimize_from(prof, M, starts)
        with monkeypatch.context() as mp:
            mp.setattr(ratefn, "_descend_simplex", _sequential_into(tried))
            _assert_same_rows(_minimize_from(prof, M, starts), stacked)
    assert max(tried) > sum(ratefn._BLOCKS[:-1])  # the last block runs
    for prof in (wishart_profile(2.0), wishart_profile(4.0)):
        _, r = support_edge(prof)
        for x in (r + 0.05, r + 1.0):
            ctx = ratefn._ctx(prof, [x])
            thetas = np.linspace(0.0, 3.0, 13) + ctx[2][0] / 2
            stacked = ratefn._sup_K_over_psi(prof, thetas, ctx)
            with monkeypatch.context() as mp:
                mp.setattr(ratefn, "_descend_simplex", _sequential_into(tried))
                assert np.array_equal(ratefn._sup_K_over_psi(prof, thetas, ctx), stacked)


def test_line_search_tries_40_lengths_and_calls_f_once_a_block():
    # where no length passes the Armijo test and every candidate still moves,
    # a row tries 40 lengths, in one call of f per block, and stops after one
    # step at its start, as one-at-a-time halving does
    start = np.array([[0.5, 0.5]])
    calls = []

    def flat(psi, _):
        calls.append(len(psi))
        return np.zeros(len(psi)), np.zeros(len(psi))

    def steep(psi, aux, _):
        return np.tile([-1e3, 1e3], (len(psi), 1))

    out = _descend_simplex(flat, steep, start, 400, ratefn._TOL)
    assert calls == [1, *ratefn._BLOCKS] and sum(ratefn._BLOCKS) == 40
    ref, tried = _sequential_descent(flat, steep, start, 400, ratefn._TOL)
    _assert_same_rows(out, ref)
    assert tried.tolist() == [40] and out[3].tolist() == [1] and np.array_equal(out[0], start)
    assert not out[4].any()


def test_line_search_calls_f_at_most_once_a_block_a_step(wishart2, monkeypatch):
    # a deep-backtracking sweep: at most 1 + len(_BLOCKS) calls of f a step,
    # where one-at-a-time halving makes more; a row evaluates its lengths up to
    # the end of the block where one-at-a-time halving stops, and no more (at
    # x = 1e3 some rows stop there because they no longer move)
    calls, steps, tried = [], [], []
    sup, grad = ratefn._sup_fhat, ratefn._fhat_grad
    monkeypatch.setattr(ratefn, "_sup_fhat", lambda *a: calls.append(len(a[2])) or sup(*a))
    monkeypatch.setattr(ratefn, "_fhat_grad", lambda *a: steps.append(1) or grad(*a))
    M, starts = ratefn._ctx(wishart2, [1e3, 1e6])[1], _default_starts(wishart2)
    _minimize_from(wishart2, M, starts)
    budget, rows = 1 + len(ratefn._BLOCKS) * len(steps), sum(calls)
    assert len(calls) <= budget
    calls.clear()
    monkeypatch.setattr(ratefn, "_descend_simplex", _sequential_into(tried))
    _minimize_from(wishart2, M, starts)
    assert len(calls) > budget
    ends = np.cumsum(ratefn._BLOCKS)
    assert rows == len(M) * len(starts) + ends[np.searchsorted(ends, tried)].sum()


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
        # the certified edge is exact to its duality gap, 1e-10 (1 + r)
        assert support_edge(scaled)[1] == pytest.approx(np.sqrt(c) * r, abs=1e-10 * (1 + np.sqrt(c) * r))
        for d in (0.1, 0.7):
            x = r + d
            I = rate_function(prof, x).I
            assert rate_function(scaled, np.sqrt(c) * x).I == pytest.approx(I, abs=1e-9)
            assert rate_function(permuted, x).I == pytest.approx(I, abs=1e-9)
            assert I <= x * x / (4.0 * prof.mean_sigma)


def _max_form(sigma):
    """(A, psi_A): the max of <psi, sigma psi> over the simplex and a maximizer,
    by support enumeration.  A maximizer of least support S is a KKT point of
    its face, sigma_SS psi_S = lam 1 with sum psi_S = 1, and that bordered
    system is regular there: a null vector would leave the form constant along
    a line to a smaller face.  Every other solution with psi_S >= 0 is a point
    of the simplex, so the best of them is A."""
    p, best = len(sigma), (-np.inf, None)
    for k in range(1, p + 1):
        for S in map(list, itertools.combinations(range(p), k)):
            B = np.block([[sigma[np.ix_(S, S)], -np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
            try:
                sol = np.linalg.solve(B, np.eye(k + 1)[k])[:k]
            except np.linalg.LinAlgError:
                continue
            if sol.min() >= 0.0:
                psi = np.zeros(p)
                psi[S] = sol
                best = max(best, (psi @ sigma @ psi, psi), key=lambda t: t[0])
    return best


def _far_field_profiles():
    """ROADMAP item 13's worked profile, then one seeded random profile for each
    p = 2..5 (sigma uniform on [0, 2] and symmetrised, Dirichlet weights)."""
    profs = [VarianceProfile([0.3595, 0.3161, 0.3244], [[1.5466, 0.4046, 1.6384], [0.4046, 0.1817, 0.8677],
                                                       [1.6384, 0.8677, 1.2602]])]
    rng = np.random.default_rng(5)
    for p in (2, 3, 4, 5):
        s = rng.uniform(0.0, 2.0, (p, p))
        profs.append(VarianceProfile(rng.dirichlet(np.ones(p)), (s + s.T) / 2))
    return profs


def test_max_form_by_support_enumeration():
    # the exact A is at least the form at every vertex and at 2,000 random mass
    # vectors, and is attained at its maximizer
    rng = np.random.default_rng(6)
    profs = _far_field_profiles()
    for prof in profs:
        A, psi = _max_form(prof.sigma)
        pts = np.vstack([np.eye(prof.p), rng.dirichlet(np.ones(prof.p), size=2000)])
        assert psi.min() >= 0.0 and psi.sum() == pytest.approx(1.0, abs=1e-12)
        assert A == pytest.approx(psi @ prof.sigma @ psi, rel=1e-14)
        assert np.einsum("ij,jk,ik->i", pts, prof.sigma, pts).max() <= A * (1 + 1e-12)
    A, psi = _max_form(profs[0].sigma)
    assert A == pytest.approx(1.564530, abs=1e-6) and np.allclose(psi, [0.8047, 0.0, 0.1953], atol=1e-4)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: far from the edge every descent row of the worked profile "
                          "caps above x^2/(4A)")
def test_rate_meets_the_far_field_bound():
    # I(x) <= x^2 / (4A) with A = max over the simplex of <psi, S psi>: the log
    # term of Fhat is not negative and <1/m, psi> <= x, so sup_theta Fhat at the
    # maximizer of the form is at most x^2 / (4A), and I is an inf over psi
    over = []
    for prof in _far_field_profiles():
        A = _max_form(prof.sigma)[0]
        for rep in rate_sweep(prof, [1e3, 1e6]):
            bound = rep.x**2 / (4.0 * A)
            if not rep.I <= bound * (1 + 1e-12):
                over.append((prof.p, rep.x, rep.I, bound))
    assert over == []


# -- exchanged min-max -------------------------------------------------------------


def test_concave_exchange_wishart(wishart2):
    _, r = support_edge(wishart2)
    for dx in (0.15, 0.4):
        x = r + dx
        assert rate_function_concave(wishart2, x) == pytest.approx(
            rate_function(wishart2, x).I, abs=2e-3
        )


@pytest.mark.parametrize("alpha", [2.0, 3.5, None])
def test_concave_rate_derivative_is_the_shifted_tilt(alpha):
    # central differences of the exchanged-order rate are theta* - G(x)/2, with
    # theta* the tilt of rate_function's saddle point, on wishart(2), wishart(3.5)
    # and a concave 2-block profile
    prof = (wishart_profile(alpha) if alpha else
            VarianceProfile([0.4, 0.6], [[0.5, 1.5], [1.5, 1.0]]))
    h = 1e-4
    _, r = support_edge(prof)
    for x in (r + 0.3, r + 1.0):
        fd = (rate_function_concave(prof, x + h) - rate_function_concave(prof, x - h)) / (2 * h)
        slope = rate_function(prof, x).theta_star - stieltjes_total(prof, x) / 2
        assert fd == pytest.approx(slope, abs=1e-6)


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
    a = np.linspace(1e-9, 1 - 1e-9, 10001)
    phis = np.column_stack([a, 1 - a])
    for th_hat in (0.1, 0.5, 1.0):
        theta = th_hat + G / 2
        lhs = _sup_K_over_psi(wishart2, theta, ratefn._ctx(wishart2, [x]))
        rhs = ratefn._K_rows(wishart2, np.full(a.size, theta), phis).max()
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_sup_K_over_psi_is_the_grid_max_on_a_concave_profile():
    # the exchanged order's ascent reaches the max of K over the phi-image of a
    # 10,001-point psi grid on a concave 2-block profile, the grid taken as one stack
    prof = VarianceProfile([0.4, 0.6], [[0.5, 1.5], [1.5, 1.0]])
    a = np.linspace(0.0, 1.0, 10001)
    psis = np.column_stack([a, 1.0 - a])
    _, r = support_edge(prof)
    for x in (r + 0.3, r + 1.0):
        ctx = ratefn._ctx(prof, [x])
        grid_ctx = ratefn._take(ctx, np.zeros(a.size, dtype=int))
        for th_hat in (0.1, 0.5, 1.0):
            thetas = np.full(a.size, th_hat + ctx[2][0] / 2)
            K = ratefn._K_rows(prof, thetas, ratefn._phi_rows(prof, thetas, grid_ctx, psis))
            sup = ratefn._sup_K_over_psi(prof, thetas[0], ctx)[0]
            assert sup == pytest.approx(K.max(), abs=1e-7)


# -- outliers ----------------------------------------------------------------------


def test_outlier_bbp_reduction(const_prof):
    for th in (0.5 + 1e-4, 0.7, 1.0, 1.6):
        z = outlier_equation_z(const_prof, th, 3.0, [1.0])
        assert z == pytest.approx(oracles.bbp_outlier(th), abs=1e-12)


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
        assert outlier_equation_z(prof, th, x, psi) == pytest.approx(x, abs=1e-12 * (1 + x))


def _tilt_cases(named_profiles):
    # (profile, x, psi, theta*) on the named profiles and random ones, from
    # just above the edge to far from it
    rng = np.random.default_rng(17)
    for prof in list(named_profiles) + [random_profile(rng, pmax=6) for _ in range(6)]:
        _, r = support_edge(prof)
        for x in (r + 1e-3, r + 0.5, r + 3.0):
            psi = rng.dirichlet(np.ones(prof.p))
            if float(psi @ prof.sigma @ psi) > 0:
                yield prof, x, psi, find_tilt_theta(prof, x, psi)


def test_outlier_solves_nu_equal_one(named_profiles):
    # at and above theta* the outlier sits where nu(z) = 1, to rounding
    for prof, x, psi, th_star in _tilt_cases(named_profiles):
        for th in (th_star, 1.3 * th_star, 3.0 * th_star):
            z = outlier_equation_z(prof, th, x, psi)
            phi = eval_phi(prof, th, x, psi)
            assert z >= x - 1e-12 * (1 + x)
            assert _nu(prof, th, _solve_real_at(prof, z), phi) == pytest.approx(1.0, abs=1e-12)


def test_outlier_calls_the_real_solve_at_most_20_times(named_profiles, monkeypatch):
    # eval_phi's solves plus the edge check plus Brent's root on its bracket
    calls = []
    _count_real_solves(monkeypatch, calls)
    for prof, x, psi, th_star in _tilt_cases(named_profiles):
        for th in (th_star, 3.0 * th_star):
            calls.clear()
            outlier_equation_z(prof, th, x, psi)
            assert len(calls) <= 20


def test_tilt_monotone_in_x(const_prof):
    ths = [find_tilt_theta(const_prof, x, [1.0]) for x in (2.5, 3.0, 3.5, 4.0)]
    assert np.all(np.diff(ths) > 0)
    # scalar oracle: theta* solves 2 theta + 1/(2 theta) = x
    assert ths[1] == pytest.approx((3 + np.sqrt(5)) / 4, abs=1e-12)


def test_tilt_theta_solves_the_outlier_equation(named_profiles):
    # theta* is closed form; nu(theta*) = 1 is the equation it must solve,
    # from just above the edge to far from it
    rng = np.random.default_rng(21)
    for prof in named_profiles:
        _, r = support_edge(prof)
        for x in (r + 1e-6, r + 0.5, r + 3.0):
            for _ in range(3):
                psi = rng.dirichlet(np.ones(prof.p))
                th = find_tilt_theta(prof, x, psi)
                phi = eval_phi(prof, th, x, psi)
                assert _nu(prof, th, _solve_real_at(prof, x), phi) == pytest.approx(1.0, abs=1e-12)


def test_the_optimizers_tilt_puts_the_outlier_at_x():
    # at a report's psi*, the saddle's tilt theta* is the one whose outlier sits
    # at x: the descent's stationarity in psi, tied to the closed-form tilt, on
    # random profiles with zero variances; up to r + 1.2, as farther out more
    # starts stop at the iteration cap (ROADMAP item 6)
    rng = np.random.default_rng(40)
    for _ in range(40):
        p = int(rng.integers(1, 6))
        s = rng.uniform(0.0, 2.0, size=(p, p))
        zero = np.triu(rng.random((p, p)) < 0.3)
        s = np.where(zero | zero.T, 0.0, (s + s.T) / 2)
        if not s.any():
            continue
        prof = VarianceProfile(rng.dirichlet(np.ones(p)), s)
        _, r = support_edge(prof)
        for rep in rate_sweep(prof, [r + 0.05, r + 0.3, r + 0.7, r + 1.2]):
            th = find_tilt_theta(prof, rep.x, rep.psi_star)
            assert rep.theta_star == pytest.approx(th, rel=0, abs=1e-8 * (1 + rep.theta_star))


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


def test_rate_unchanged_by_splitting_a_block():
    rng = np.random.default_rng(43)
    for _ in range(4):
        prof = random_profile(rng, pmax=4)
        split = split_block(prof, int(rng.integers(prof.p)))
        _, r = support_edge(prof)
        for x in (r + 0.1, r + 0.7):
            assert rate_function(split, x).I == pytest.approx(rate_function(prof, x).I, abs=1e-9)


def test_discretization_edge_and_rate_converge():
    # sigma(s, t) = 1 + 2 exp(-4 (s - t)^2) + s t: each doubling of p cuts the
    # step of the edge r_p and of I_p(x) at a fixed x by about 4
    spec = ContinuousProfileSpec.from_function(lambda s, t: 1 + 2 * np.exp(-4 * (s - t) ** 2) + s * t, 256)
    profs = {p: discretize(spec, p)[0] for p in (4, 8, 16, 32, 64, 128)}
    r = [support_edge(profs[p])[1] for p in (8, 16, 32, 64, 128)]
    steps = np.abs(np.diff(r))
    assert np.all(steps[1:] < 0.5 * steps[:-1])
    x = r[-1] + 0.5
    I = {p: rate_function(profs[p], x).I for p in profs}
    steps = np.abs(np.diff(list(I.values())))
    assert np.all(steps[1:] < 0.5 * steps[:-1])
    # second order: the Richardson values I_2p + (I_2p - I_p)/3 agree within the last step
    rich = [I[2 * p] + (I[2 * p] - I[p]) / 3 for p in (32, 64)]
    assert abs(rich[1] - rich[0]) < steps[-1]


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
