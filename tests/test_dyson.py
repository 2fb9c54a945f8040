import numpy as np
import pytest
from scipy.integrate import quad

from wigner_ldp import dyson, oracles
from wigner_ldp.dyson import (
    _MEMO_SIZE,
    ConvergenceError,
    _damped_newton,
    _fold_system,
    _inverse_solve,
    _residual,
    _sigma_w,
    _solve_block,
    _solve_real,
    _solve_real_at,
    fixed_point_map,
    log_potential,
    solve_dyson,
    solve_dyson_finite,
    spectral_measure,
    stieltjes_inverse,
    stieltjes_total,
    support_edge,
)
from wigner_ldp.profiles import (
    ContinuousProfileSpec, UsageError, VarianceProfile, block_profile, constant_profile, discretize,
    wishart_profile,
)

from conftest import random_profile, split_block

SC_M3 = (3 - np.sqrt(5)) / 2  # root of m^2 - 3m + 1 = 0 with |m| <= 1


def test_semicircle_at_3(const_prof):
    sol = solve_dyson(const_prof, 3.0)
    assert sol.m[0].real == pytest.approx(SC_M3, abs=1e-12)
    assert sol.residual < 1e-10 * 4


def test_semicircle_at_i(const_prof):
    sol = solve_dyson(const_prof, 1j)
    # root of m^2 - i m + 1 = 0 in the lower half-plane
    assert sol.m[0] == pytest.approx(-1j * (np.sqrt(5) - 1) / 2, abs=1e-12)


def test_wishart_blocks_closed_form(wishart2):
    sol = solve_dyson(wishart2, 1.5)
    m1, m2 = oracles.wishart_block_stieltjes(2.0, 1.5)
    assert sol.m[0] == pytest.approx(m1, abs=1e-10)
    assert sol.m[1] == pytest.approx(m2, abs=1e-10)
    assert sol.G_blocks[0] == pytest.approx(wishart2.weights[0] * m1, abs=1e-10)


def test_solution_invariants(named_profiles):
    rng = np.random.default_rng(3)
    for prof in named_profiles:
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            sol = solve_dyson(prof, z)
            assert np.all(np.imag(sol.m) < 0)
            assert sol.residual <= 1e-10 * (1 + abs(z))
            assert sol.G_total == pytest.approx(np.sum(prof.weights * sol.m), rel=1e-14)


def test_herglotz_many_random_profiles():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        prof = random_profile(rng)
        z = complex(rng.uniform(-4, 4), rng.uniform(0.02, 3.0))
        sol = solve_dyson(prof, z)
        assert np.all(np.imag(sol.m) < 0)


# -- batched complex solve -----------------------------------------------------
# `_solve_block` solves many complex rows at once, one rung of `_descend`.


def _random_batch(seed, n=40):
    rng = np.random.default_rng(seed)
    prof = random_profile(rng)
    zs = rng.uniform(-4, 4, n) + 1j * 10 ** rng.uniform(-1.7, 0.5, n)
    return prof, zs


@pytest.mark.parametrize("seed", range(6))
def test_solve_complex_many_row_independent_of_batch(seed):
    prof, zs = _random_batch(seed)
    m0, _ = _solve_block(prof, zs + 0.05j, None)
    perm = np.random.default_rng(seed).permutation(zs.size)
    for start in (None, m0):
        rows = (lambda sel: None) if start is None else (lambda sel: start[sel])
        m, its = _solve_block(prof, zs, start)
        for i in range(zs.size):
            mi, iti = _solve_block(prof, zs[i : i + 1], rows(slice(i, i + 1)))
            assert np.all(mi[0] == m[i]) and iti[0] == its[i]
        mp, _ = _solve_block(prof, zs[perm], rows(perm))
        assert np.all(mp == m[perm])
    # strided (non-contiguous) views of the same inputs, and of the solution
    # under the sigma (w m) reduction
    ms, its_s = _solve_block(prof, np.repeat(zs, 2)[::2], np.repeat(m0, 2, axis=0)[::2])
    assert np.all(ms == m) and np.all(its_s == its)
    Sm = _sigma_w(prof, m)
    assert np.all(_sigma_w(prof, np.repeat(m, 2, axis=1)[:, ::2]) == Sm)
    assert all(np.all(_sigma_w(prof, m[i]) == Sm[i]) for i in range(zs.size))


@pytest.mark.parametrize("seed", range(6))
def test_descend_blocks_of_rows_change_nothing(seed, monkeypatch):
    prof, zs = _random_batch(seed)
    m, its = dyson._descend(prof, zs.real, 0.01)
    # blocks of 3 rows; unpatched, the 40 rows are one block
    monkeypatch.setattr(dyson, "_BLOCK_ENTRIES", 3 * prof.p**2)
    mb, its_b = dyson._descend(prof, zs.real, 0.01)
    assert not np.isnan(m).any()
    assert np.all(mb == m) and np.all(its_b == its)


@pytest.mark.parametrize("seed", range(6))
def test_solve_complex_many_herglotz_and_residual(seed):
    prof, zs = _random_batch(seed, n=200)
    m, _ = _solve_block(prof, zs, None)
    assert np.all(np.imag(m) < 0)
    assert np.all(_residual(prof, zs[:, None], m) < 1e-10 * (1 + np.abs(zs)))


def test_solve_complex_many_nan_row(block_14):
    # a row whose z or start is not finite is NaN after no sweep; the others are untouched
    zs = np.array([1.0 + 1.0j, complex(np.nan, 1.0), complex(np.nan, np.nan), 0.5 + 0.2j, 0.7 + 0.3j])
    with np.errstate(invalid="ignore"):  # as _descend runs it: 1/z of a NaN row
        m, its = _solve_block(block_14, zs, None)
        start = np.repeat((1.0 / zs)[:, None], block_14.p, axis=1)
        start[4, 0] = np.nan
        ms, its_s = _solve_block(block_14, zs, start)
    assert np.all(np.isnan(m[1:3])) and np.all(its[1:3] == 0)
    ok, _ = _solve_block(block_14, zs[[0, 3, 4]], None)
    assert np.all(m[[0, 3, 4]] == ok)
    assert np.all(np.isnan(ms[[1, 2, 4]])) and np.all(its_s[[1, 2, 4]] == 0)
    assert np.all(ms[[0, 3]] == ok[:2])


def test_solve_rows_singular_row_is_nan():
    # one exactly singular system would fail np.linalg.solve on the whole
    # stack; it is NaN, and every other row is its own solve, bit for bit,
    # for the real stacks of the damped Newton and the complex ones of a rung
    rng = np.random.default_rng(3)
    for imag in (0.0, 1.0):
        J = rng.normal(size=(7, 3, 3)) + imag * 1j * rng.normal(size=(7, 3, 3))
        J = J if imag else J.real
        J[4] = [[1, 2, 0], [2, 4, 0], [1, 1, 1]]
        b = rng.normal(size=(7, 3)).astype(J.dtype)
        x = dyson._solve_rows(J, b)
        assert np.all(np.isnan(x[4]))
        for i in (0, 1, 2, 3, 5, 6):
            assert np.all(x[i] == np.linalg.solve(J[i : i + 1], b[i : i + 1, :, None])[0, :, 0])


def _eight_blocks():
    rng = np.random.default_rng(11)
    s = rng.uniform(0.2, 2.0, (8, 8))
    return VarianceProfile(rng.dirichlet(np.full(8, 5.0)), (s + s.T) / 2)


@pytest.mark.parametrize("prof", [
    wishart_profile(5.0),
    _eight_blocks(),
    VarianceProfile([0.2, 0.5, 0.3], [[0, 1, 2], [1, 0, 0], [2, 0, 0]]),  # atom at 0
], ids=["wishart5", "8-block", "3-block-atom"])
def test_descend_converges_near_the_real_axis(prof):
    # full Newton steps and contraction steps alone, with no step-length
    # search, resolve every row of a fine grid at eta = 1e-5
    _, r = support_edge(prof)
    xs = np.linspace(-r - 0.2, r + 0.2, 801)
    zs = xs + 1e-5j
    m = dyson._descend(prof, xs, 1e-5)[0]
    assert not np.isnan(m).any()
    assert np.all(_residual(prof, zs[:, None], m) < 1e-10 * (1 + np.abs(zs)))


@pytest.mark.parametrize("prof, atom", [
    (wishart_profile(2.0), 1 / 3),
    (wishart_profile(5.0), 2 / 3),
    (VarianceProfile([0.2, 0.5, 0.3], [[0, 1, 2], [1, 0, 0], [2, 0, 0]]), 0.6),
], ids=["wishart2", "wishart5", "3-block-atom"])
@pytest.mark.parametrize("eta", [10.0**-k for k in range(6, 13)])
def test_solve_dyson_converges_at_an_atom(prof, atom, eta):
    # |m| ~ atom / eta at z = i eta: the stop test is relative, so no eta sits
    # below a rounding floor of the residual, and i eta G(i eta) is the atom's
    # mass up to O(eta^2)
    sol = solve_dyson(prof, 1j * eta)
    assert abs(1j * eta * sol.G_total - atom) < 4 * eta**2 + 1e-13


def hyperbolic_D(u, v):
    """max_k |u_k - v_k|^2 / (Im u_k Im v_k) for lower half-plane vectors: the
    hyperbolic metric in which the fixed-point map contracts."""
    num, den = np.abs(u - v) ** 2, np.imag(u) * np.imag(v)
    return np.inf if np.any(den <= 0) else float(np.max(num / den))


def test_contraction_certificate(wishart2):
    # successive-iterate hyperbolic ratio bounded by (1 + (Im z)^2 / A)^-2
    z = 0.7 + 0.6j
    factor = (1 + z.imag**2 / wishart2.max_sigma) ** -2
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-3, -0.05, 2)
        m = fixed_point_map(wishart2, z, m)  # enter the invariant region
        prev = fixed_point_map(wishart2, z, m)
        d_prev = hyperbolic_D(prev, m)
        for _ in range(20):
            nxt = fixed_point_map(wishart2, z, prev)
            d_next = hyperbolic_D(nxt, prev)
            if d_prev > 1e-300:
                assert d_next / d_prev <= factor + 1e-9
            m, prev, d_prev = prev, nxt, d_next


@pytest.mark.parametrize("z", [-1.0984 + 0.0053j, 1.3199 + 0.0002j, -1.4869 + 0.0002j])
def test_solve_dyson_cold_start_near_axis(z):
    # a single solve from 1/z stalls at these z; the Im z ladder converges
    prof = random_profile(np.random.default_rng(1))
    sol = solve_dyson(prof, z)
    assert np.all(np.imag(sol.m) < 0)
    assert sol.residual < 1e-10 * (1 + abs(z))


def test_solve_dyson_cold_start_one_rung_far_from_axis(block_14):
    # Im z >= 0.25 is one solve from 1/z, as the block solve gives it
    for z in (0.3 + 0.25j, -1.0 + 2.0j):
        m, its = _solve_block(block_14, np.array([z]), None)
        sol = solve_dyson(block_14, z)
        assert np.all(sol.m == m[0]) and sol.iterations == its[0]


def test_solve_dyson_rejects_lower_half(const_prof):
    with pytest.raises(ValueError):
        solve_dyson(const_prof, 1.0 - 1j)


def test_real_axis_below_edge_fails(const_prof, named_profiles):
    with pytest.raises(ConvergenceError):
        solve_dyson(const_prof, 1.2)
    # block(0.5, 1, 4) at 0.6 r lies above the edge of its sigma = 1 block alone
    for prof in named_profiles:
        _, r = support_edge(prof)
        for x in (0.6 * r, 0.999 * r):
            with pytest.raises(ConvergenceError):
                solve_dyson(prof, x)


# -- finite-N system ---------------------------------------------------------


def test_finite_n_size_one():
    m = solve_dyson_finite(np.array([[1.0]]), 3.0 + 1e-9j)
    assert m[0].real == pytest.approx(SC_M3, abs=1e-6)


def test_finite_n_permutation_symmetry(const_prof):
    N = 40
    m = solve_dyson_finite(np.ones((N, N)), 2j)
    ref = solve_dyson(const_prof, 2j).m[0]
    assert np.max(np.abs(m - ref)) < 1e-10


def test_finite_n_wishart_shrinks(wishart2):
    ref = solve_dyson(wishart2, 2j).m
    sups = []
    for N in (100, 300):
        b = wishart2.row_blocks(N)
        mN = solve_dyson_finite(wishart2.sigma[np.ix_(b, b)], 2j)
        sups.append(np.max(np.abs(mN - ref[b])))
    assert sups[1] < sups[0]


def test_finite_n_converges_near_the_real_axis(wishart2):
    # the plain fixed-point map stalls here; the Newton core needs a few sweeps
    b = wishart2.row_blocks(400)
    S = wishart2.sigma[np.ix_(b, b)]
    m = solve_dyson_finite(S, 1 + 0.01j)
    assert np.all(np.imag(m) < 0)
    assert _residual(VarianceProfile(np.full(400, 1 / 400), S), 1 + 0.01j, m) < 1e-10
    assert np.max(np.abs(m - solve_dyson(wishart2, 1 + 0.01j).m[b])) < 1e-2


def test_finite_n_is_solve_dyson_on_n_blocks(wishart2, monkeypatch):
    # the size-N system walks the same Im z ladder, so it fails as solve_dyson does
    b = wishart2.row_blocks(30)
    S = wishart2.sigma[np.ix_(b, b)]
    z = 0.4 + 0.01j
    ref = solve_dyson(VarianceProfile(np.full(30, 1 / 30), S), z).m
    assert np.array_equal(solve_dyson_finite(S, z), ref)
    monkeypatch.setattr(dyson, "_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        solve_dyson_finite(S, z)


@pytest.mark.parametrize("z", [2j, 0.5 + 0.05j, -1 + 0.2j])
def test_finite_n_is_the_block_system_at_the_row_fractions(z):
    # rows of one block have the same equation, so the N-row solution is, row by row,
    # the block solution at weights n_k/N with the blocks that get no row dropped
    rng = np.random.default_rng(8)
    light = VarianceProfile([0.005, 0.495, 0.5], [[1.0, 0.4, 0.2], [0.4, 2.0, 0.7], [0.2, 0.7, 0.5]])
    empty = 0
    for prof in [light, *(random_profile(rng, pmax=5) for _ in range(4))]:
        for N in (50, 100, 200):
            b = prof.row_blocks(N)
            mN = solve_dyson_finite(prof.sigma[np.ix_(b, b)], z)
            blocks, row, n = np.unique(b, return_inverse=True, return_counts=True)
            mk = solve_dyson(VarianceProfile(n / N, prof.sigma[np.ix_(blocks, blocks)]), z).m[row]
            assert np.max(np.abs(mN - mk) / np.abs(mk)) < 1e-12
            empty += blocks.size < prof.p
    assert empty == 2  # the 0.005 block gets no row at N = 50 and 100


def test_finite_n_validates_input():
    with pytest.raises(ValueError):
        solve_dyson_finite(np.array([[1.0, 0.5], [0.4, 1.0]]), 2j)
    with pytest.raises(ValueError):
        solve_dyson_finite(np.ones((3, 3)), 3.0)


# -- spectral measure --------------------------------------------------------


def test_semicircle_density(const_prof):
    sm = spectral_measure(const_prof, -2.5, 2.5, 501)
    sel = np.abs(sm.x_grid) <= 1.9
    err = np.abs(sm.density[sel] - oracles.sc_density(sm.x_grid[sel]))
    assert err.max() < 1e-4
    assert sm.total_mass_error < 1e-3
    assert np.max(np.abs(sm.density - sm.density[::-1])) < 1e-6


def test_density_symmetry(named_profiles):
    for prof in named_profiles:
        _, r = support_edge(prof)
        sm = spectral_measure(prof, -r - 0.2, r + 0.2, 201)
        assert np.max(np.abs(sm.density - sm.density[::-1])) < 1e-6


def test_block_densities_integrate_to_weights(block_14):
    _, r = support_edge(block_14)
    sm = spectral_measure(block_14, -r - 0.3, r + 0.3, 801)
    for k in range(2):
        mass = np.trapezoid(sm.block_densities[k], sm.x_grid)
        assert mass == pytest.approx(block_14.weights[k], abs=1e-3)


def test_wishart_density_matches_mp_pushforward(wishart2):
    sm = spectral_measure(wishart2, -1.6, 1.6, 321)
    sel = (np.abs(sm.x_grid) > 0.35) & (np.abs(sm.x_grid) < 1.3)
    ref = wishart2.weights[0] * oracles.wishart_block_density(2.0, sm.x_grid[sel], 1) + \
        wishart2.weights[1] * oracles.wishart_block_density(2.0, sm.x_grid[sel], 2)
    assert np.max(np.abs(sm.density[sel] - ref)) < 1e-5
    # the atom at zero is reported as a flagged point, not silent garbage
    assert sm.flags[np.argmin(np.abs(sm.x_grid))]


def _closed_form_density(prof, x):
    if prof.p == 1:
        return oracles.sc_density(x)
    return sum(w * oracles.wishart_block_density(2.0, x, k + 1) for k, w in enumerate(prof.weights))


@pytest.mark.parametrize("prof", ["const_prof", "wishart2"])
def test_density_is_the_closed_form_to_rounding(prof, request):
    # the Newton rung at Im z = 0 lands on the boundary value itself: every
    # unflagged point of a whole grid and of windows of half-width 1e-3 and
    # 1e-4 around each edge (whose middle point is the edge, flagged) matches
    prof = request.getfixturevalue(prof)
    _, r = support_edge(prof)
    # wishart(2)'s inner edge: (1 + alpha) x^2 at the lower MP edge (1 - sqrt(alpha))^2
    edges = [r] if prof.p == 1 else [r, np.sqrt(oracles.mp_support(2.0)[0] / 3.0)]
    grids = [(-r - 0.3, r + 0.3, 501)]
    grids += [(s * e - d, s * e + d, 21) for e in edges for s in (-1, 1) for d in (1e-3, 1e-4)]
    for lo, hi, n in grids:
        sm = spectral_measure(prof, lo, hi, n)
        ok = ~sm.flags
        ref = _closed_form_density(prof, sm.x_grid)
        assert np.max(np.abs(sm.density[ok] - ref[ok])) < 1e-12
        if n == 21:
            assert np.flatnonzero(sm.flags).tolist() in ([], [10])


@pytest.mark.parametrize("prof", [
    wishart_profile(2.0),
    wishart_profile(5.0),
    VarianceProfile([0.2, 0.5, 0.3], [[0, 1, 2], [1, 0, 0], [2, 0, 0]]),
], ids=["wishart2", "wishart5", "3-block-atom"])
def test_density_flags_exactly_the_atom(prof):
    # the grid `quantile_spectrum_matrix` uses: only the point at the atom x = 0
    # does not stop, and it carries no density
    l, r = support_edge(prof)
    sm = spectral_measure(prof, l - 0.05, r + 0.05, 1501)
    [k] = np.flatnonzero(sm.flags)
    assert abs(sm.x_grid[k]) < 1e-12 and sm.density[k] == 0.0


def test_density_flags_no_bulk_point(named_profiles):
    for prof in named_profiles:
        _, r = support_edge(prof)
        sm = spectral_measure(prof, -r - 0.2, r + 0.2, 201)
        flagged = sm.x_grid[sm.flags]
        assert np.all(np.abs(flagged) < 1e-12) and (flagged.size == 0) == (np.diag(prof.sigma) > 0).all()


@pytest.mark.parametrize("half, points", [(1e-8, 5), (1e-6, 401), (1e-5, 401), (1e-4, 401)])
def test_density_flags_near_an_edge_only_within_about_1e_6(half, points):
    # next to an edge the Newton rung at Im z = 0 can run out of steps: a flag
    # then marks a point beside wishart(2)'s inner edge, but never one farther
    # than about 1e-6 from it (1.2e-6 is the farthest seen)
    e = np.sqrt((1.0 - np.sqrt(2.0)) ** 2 / 3.0)
    sm = spectral_measure(wishart_profile(2.0), e - half, e + half, points)
    assert np.all(np.abs(sm.x_grid[sm.flags] - e) <= min(half, 2e-6) + 4 * np.spacing(e))
    assert np.all(sm.density[sm.flags] == 0.0)


def _ladder_profiles():
    """12 seeded random profiles, a third of them sparse (with an atom at 0)."""
    rng = np.random.default_rng(29)
    for i in range(12):
        prof = random_profile(rng, pmax=6)
        if i % 3 == 0:
            zero = rng.random((prof.p, prof.p)) < 0.4
            prof = VarianceProfile(prof.weights, np.where(zero | zero.T, 0.0, prof.sigma))
        yield prof


def test_density_matches_a_fine_ladder_on_random_profiles():
    # against solve_dyson at eta = 1e-8, away from x = 0, where a sparse
    # profile's atom sits
    for prof in _ladder_profiles():
        _, r = support_edge(prof)
        sm = spectral_measure(prof, -r - 0.2, r + 0.2, 41)
        sel = np.abs(sm.x_grid) > 0.05
        assert not sm.flags[sel].any()
        ref = np.array([-solve_dyson(prof, x + 1e-8j).G_total.imag / np.pi for x in sm.x_grid[sel]])
        assert np.all(np.abs(sm.density[sel] - ref) < 1e-3 * (1 + ref))


def _full_stop_ladder(prof, xs, eta):
    """m(x + i eta) down `_descend`'s ladder, every rung run to the full `_stops` test."""
    rungs = [eta]
    while rungs[0] < 0.25:
        rungs.insert(0, min(8 * rungs[0], 0.5))
    m = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for e in rungs:
            m, _ = dyson._solve_block(prof, xs + 1j * e, m)
    return m


def _full_stop_density(prof, xs):
    """(density, flags) of `spectral_measure` at every x, from `_full_stop_ladder`."""
    m = _full_stop_ladder(prof, xs, dyson._ETA)
    act = np.ones(xs.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(dyson._REAL_RUNG_STEPS):
            i = np.flatnonzero(act)
            if i.size == 0:
                break
            nxt = dyson._newton_step(prof, xs[i], m[i])[0]
            act[i[dyson._stops(prof, xs[i], m[i], nxt)]] = False
            m[i] = nxt
    flags = act | np.any(np.imag(m) > 1e-12 * np.abs(m), axis=1)
    rho = np.maximum(-np.imag(prof.weights * m) / np.pi, 0.0).sum(axis=1)
    return np.where(flags, 0.0, rho), flags


def test_converging_only_the_last_rung_changes_nothing_beyond_rounding(wishart2, block_14):
    # the rungs above the last stop on the residual alone; their output only
    # starts the next rung, so the density, its flags and solve_dyson's m agree
    # with a ladder whose every rung runs the step test as well
    for prof in [*_ladder_profiles(), wishart2, block_14]:
        _, r = support_edge(prof)
        sm = spectral_measure(prof, -r - 0.2, r + 0.2, 41)
        rho, flags = _full_stop_density(prof, sm.x_grid)
        assert np.array_equal(sm.flags, flags)
        assert np.all(np.abs(sm.density - rho) <= 1e-12 * (1 + rho))
        xs = np.linspace(-r - 0.2, r + 0.2, 9)
        for eta in (1e-2, 1e-5):
            ref = _full_stop_ladder(prof, xs, eta)
            m = np.array([solve_dyson(prof, x + 1j * eta).m for x in xs])
            assert np.all(np.abs(m - ref) <= 1e-13 * np.abs(ref))


_SMOOTH = ContinuousProfileSpec.from_function(lambda s, t: 1 + 2 * np.exp(-4 * (s - t) ** 2) + s * t, 64)


@pytest.mark.parametrize("prof", [
    constant_profile(), wishart_profile(2.0), block_profile(0.5, 1.0, 4.0), discretize(_SMOOTH, 8)[0],
], ids=["constant", "wishart2", "block14", "8-block"])
def test_density_ladder_stops_every_rung_at_start_quality(prof, monkeypatch):
    # every ladder rung of the density only starts the next one, so none runs
    # the full stop test, and the ladder makes well under the row-sweeps of one
    # whose every rung does
    calls, solve = [], dyson._solve_block

    def spy(p, z, m0, last=True):
        m, its = solve(p, z, m0, last)
        calls.append((last, int(its.sum())))
        return m, its

    monkeypatch.setattr(dyson, "_solve_block", spy)
    _, r = support_edge(prof)
    xs = spectral_measure(prof, -r - 0.2, r + 0.2, 501).x_grid
    assert calls and not any(last for last, _ in calls)
    seeded = sum(n for _, n in calls)
    calls.clear()
    _full_stop_ladder(prof, xs[np.abs(xs) <= r + dyson.EDGE_GAP_TOL * (1 + r)], dyson._ETA)
    assert seeded <= 0.7 * sum(n for _, n in calls)


@pytest.mark.parametrize("prof, lo, hi, bulk", [
    (constant_profile(), 1.5, 2.5, (1.5, 1.95)),  # straddles the edge 2
    (wishart_profile(2.0), -2.0, 2.0, (0.3, 1.35)),
    # reducible: parts of edges 2 sqrt(0.5) and 2 sqrt(2); r is the larger
    (VarianceProfile([0.5, 0.5], np.diag([1.0, 4.0])), -1.0, 3.5, (1.5, 2.78)),
], ids=["const-edge", "wishart2", "reducible"])
def test_density_solves_only_inside_the_certified_support(prof, lo, hi, bulk, monkeypatch):
    # support_edge puts mu in |x| <= r + EDGE_GAP_TOL (1 + r): every other
    # point is an exact 0 with no flag and never reaches the complex solve,
    # while the bulk (of the part with the largest edge) keeps its density
    seen, descend = [], dyson._descend
    monkeypatch.setattr(dyson, "_descend",
                        lambda p, xs, eta, **kw: seen.append(xs.copy()) or descend(p, xs, eta, **kw))
    _, r = support_edge(prof)
    sm = spectral_measure(prof, lo, hi, 101)
    inside = np.abs(sm.x_grid) <= r + dyson.EDGE_GAP_TOL * (1 + r)
    [xs] = seen
    assert np.array_equal(xs, sm.x_grid[inside])
    assert np.all(sm.density[~inside] == 0.0) and np.all(sm.block_densities[:, ~inside] == 0.0)
    assert not sm.flags[~inside].any()
    assert np.all(sm.density[(sm.x_grid > bulk[0]) & (sm.x_grid < bulk[1])] > 0)


def test_density_outside_the_support_makes_no_complex_solve(const_prof, monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("complex solve outside the support")

    monkeypatch.setattr(dyson, "_solve_block", refuse)
    monkeypatch.setattr(dyson, "_newton_step", refuse)
    sm = spectral_measure(const_prof, 2.5, 3.0, 11)
    assert np.all(sm.block_densities == 0.0) and not sm.flags.any() and sm.total_mass == 0.0


def test_spectral_measure_validates_args(const_prof):
    with pytest.raises(ValueError):
        spectral_measure(const_prof, 2.0, -2.0, 100)
    for x_min, x_max in ((-2.0, np.inf), (np.nan, 2.0), (-np.inf, 2.0)):
        with pytest.raises(ValueError):
            spectral_measure(const_prof, x_min, x_max, 100)


# -- edges --------------------------------------------------------------------


def test_edges(const_prof, wishart2, block_14):
    _, r = support_edge(const_prof)
    assert r == pytest.approx(2.0, abs=1e-4)
    _, rw = support_edge(wishart2)
    # edge of the symmetrized MP pushforward: (1 + sqrt(alpha)) / sqrt(1 + alpha)
    assert rw == pytest.approx(oracles.wishart_edge(2.0), abs=1e-3)
    _, rb = support_edge(block_14)
    assert rb == pytest.approx(2 * np.sqrt(2.0), abs=1e-3)


def test_edges_closed_forms(const_prof):
    assert support_edge(const_prof)[1] == pytest.approx(2.0, abs=1e-10)
    for alpha in (0.5, 2.0, 5.0):
        prof = VarianceProfile([1 / (1 + alpha), alpha / (1 + alpha)], [[0.0, 1.0], [1.0, 0.0]])
        assert support_edge(prof)[1] == pytest.approx(oracles.wishart_edge(alpha), abs=1e-10)
    # block diagonal: r = max_k 2 sqrt(sigma_kk w_k)
    for w, d in (([0.5, 0.5], [1.0, 4.0]), ([1 / 3, 2 / 3], [1.0, 2.0]), ([0.2, 0.3, 0.5], [3.0, 0.5, 1.1])):
        r = max(2 * np.sqrt(dk * wk) for wk, dk in zip(w, d))
        assert support_edge(VarianceProfile(w, np.diag(d)))[1] == pytest.approx(r, abs=1e-10)


def test_edges_reducible_profiles():
    # the block with the larger variance has the smaller edge
    prof = VarianceProfile([0.9, 0.1], np.diag([1.0, 1.2]))
    assert support_edge(prof)[1] == pytest.approx(2 * np.sqrt(0.9), abs=1e-10)
    # near the Newton seed the Perron root of diag(m^2) sigma diag(w) belongs to
    # the single block (edge 2 sqrt(0.19)), but the bipartite part has the
    # larger edge sqrt(0.8) + sqrt(0.01); each part is solved on its own
    w, s = [0.19, 0.8, 0.01], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert support_edge(VarianceProfile(w, s))[1] == pytest.approx(np.sqrt(0.8) + 0.1, abs=1e-10)
    # a block with sigma = 0 only adds an atom at 0
    prof = VarianceProfile([0.25, 0.75], [[4.0, 0.0], [0.0, 0.0]])
    assert support_edge(prof)[1] == pytest.approx(2.0, abs=1e-10)


def test_irreducible_parts_do_not_depend_on_the_row_order():
    # the contiguous profile {0, 1} {2} {3, 4}, with a zero-diagonal pair, and its rows
    # permuted have the same parts: equal masses and edges (parts sorted by mass)
    w = np.array([0.1, 0.15, 0.2, 0.3, 0.25])
    s = np.zeros((5, 5))
    s[0, 1] = s[1, 0] = 2.0
    s[2, 2] = 1.0
    s[3:, 3:] = [[1.0, 0.5], [0.5, 3.0]]

    def parts(perm):
        found = dyson._irreducible_parts(VarianceProfile(w[perm], s[np.ix_(perm, perm)]))
        return np.array(sorted((mass, support_edge(part)[1]) for mass, part in found))

    base = parts(np.arange(5))
    assert base[:, 0] == pytest.approx([0.2, 0.25, 0.55], abs=1e-15)
    rng = np.random.default_rng(29)
    for _ in range(4):
        assert parts(rng.permutation(5)) == pytest.approx(base, abs=1e-12)


def test_edge_between_duality_bounds():
    # weak duality for r = min_{m>0} max_k (1/m_k + (sigma (w m))_k): every
    # m > 0 bounds r above, every lam on the simplex bounds it below
    rng = np.random.default_rng(17)
    for _ in range(20):
        prof = random_profile(rng, pmax=5)
        w, s = prof.weights, prof.sigma
        _, r = support_edge(prof)
        for _ in range(10):
            m = rng.uniform(0.05, 3.0, prof.p)
            lam = rng.dirichlet(np.ones(prof.p))
            assert 2 * np.sum(np.sqrt(lam * w * (s @ lam))) <= r <= np.max(1 / m + s @ (w * m))


def test_edge_is_the_fold_point():
    # just above r the real-axis solve exists and is nearly unstable; just below it fails
    rng = np.random.default_rng(19)
    for _ in range(5):
        prof = random_profile(rng, pmax=5)
        _, r = support_edge(prof)
        m = _solve_real_at(prof, r + 1e-8)
        rho = np.max(np.abs(np.linalg.eigvals((m**2)[:, None] * prof.sigma * prof.weights)))
        assert 1 - 1e-2 < rho < 1
        with pytest.raises(ConvergenceError):
            _solve_real_at(prof, r - 1e-8)


def test_edge_and_real_solve_need_no_complex_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complex solve called")

    monkeypatch.setattr(dyson, "_solve_block", refuse)
    prof = VarianceProfile([0.35, 0.65], [[1.3, 0.4], [0.4, 0.9]])
    _, r = support_edge.__wrapped__(prof)
    m = _solve_real(prof, [r + 0.25])[0]
    assert np.all(m > 0) and _residual(prof, r + 0.25, m) < 1e-11


def test_splitting_a_block_changes_nothing():
    rng = np.random.default_rng(23)
    for _ in range(6):
        prof = random_profile(rng, pmax=4)
        split = split_block(prof, int(rng.integers(prof.p)))
        _, r = support_edge(prof)
        assert support_edge(split)[1] == pytest.approx(r, abs=1e-10)
        for x in (r + 0.05, r + 1.0):
            assert stieltjes_total(split, x) == pytest.approx(stieltjes_total(prof, x), abs=1e-12)
        a = spectral_measure(prof, -r - 0.2, r + 0.2, 81)
        b = spectral_measure(split, -r - 0.2, r + 0.2, 81)
        assert np.max(np.abs(a.density - b.density)) < 1e-10


def test_block_edge_scaling(block_12):
    # r = max(sqrt(alpha) r1, sqrt(1-alpha) r2) with semicircle edges 2, 2 sqrt(2)
    _, r = support_edge(block_12)
    pred = max(np.sqrt(1 / 3) * 2.0, np.sqrt(2 / 3) * 2.0 * np.sqrt(2.0))
    assert r == pytest.approx(pred, abs=1e-3)


def test_edges_symmetric(named_profiles):
    for prof in named_profiles:
        l, r = support_edge(prof)
        assert l == -r


# -- Stieltjes transform on the real axis -------------------------------------


def test_stieltjes_total_semicircle(const_prof):
    assert stieltjes_total(const_prof, 3.0) == pytest.approx(SC_M3, abs=1e-11)


def test_stieltjes_tail(const_prof):
    assert stieltjes_total(const_prof, 1e3) == pytest.approx(1e-3, rel=1e-3)


def test_stieltjes_wishart_value(wishart2):
    # total transform from the MP closed form (the solver-independent route)
    ref = oracles.wishart_total_stieltjes(2.0, 1.5).real
    assert stieltjes_total(wishart2, 1.5) == pytest.approx(ref, abs=1e-10)


def test_stieltjes_strictly_decreasing_and_finite_at_edge(named_profiles):
    for prof in named_profiles:
        _, r = support_edge(prof)
        g_edge = stieltjes_total(prof, r + 1e-5)
        assert np.isfinite(g_edge) and g_edge > 0
        # the certified edge lets the real solve converge a hair above r
        assert stieltjes_total(prof, r + 1e-12) > g_edge
        xs = np.linspace(r + 1e-3, r + 4, 100)
        gs = [stieltjes_total(prof, float(x)) for x in xs]
        assert np.all(np.diff(gs) < 0)


def test_stieltjes_below_edge_raises(const_prof):
    with pytest.raises(ValueError):
        stieltjes_total(const_prof, 1.9)


def test_inverse_calls_the_real_solve_at_most_twice(monkeypatch):
    # on success one real-axis batch, the tail-series starts; on a failure also
    # the solve just above the edge, whose G sorts it into ValueError or
    # ConvergenceError
    prof = VarianceProfile([0.3, 0.7], [[1.1, 0.35], [0.35, 0.6]])
    _, r = support_edge(prof)
    target = 0.5 * stieltjes_total(prof, r + 1e-3)
    calls = []
    solve = dyson._solve_real
    monkeypatch.setattr(dyson, "_solve_real", lambda p, xs: calls.append(list(xs)) or solve(p, xs))
    monkeypatch.setattr(dyson, "_solve_real_at", _solve_real_at.__wrapped__)  # no memo hits
    v, _ = _inverse_solve(prof, [target, 2 * target])
    assert (v > r).all() and len(calls) == 1 and len(calls[0]) == 2
    calls.clear()
    with pytest.raises(ValueError):
        _inverse_solve(prof, [target, 1e3])
    assert len(calls) == 2 and calls[1] == [r + dyson._edge_margin(prof)]


def test_inverse_round_trip(const_prof):
    rng = np.random.default_rng(43)
    for prof in [const_prof] + [random_profile(rng, pmax=6) for _ in range(8)]:
        _, r = support_edge(prof)
        for x in [3.0] + [r + d for d in (1e-6, 1e-3, 0.5, 10.0, 1e6)]:
            assert abs(stieltjes_inverse(prof, stieltjes_total(prof, x)) - x) <= 1e-12 * (1 + x)


def test_inverse_semicircle_closed_form(const_prof):
    # G^-1(g) = g + 1/g for the semicircle
    for g in (1e-4, 0.1, 0.5, 0.9, 0.999, 0.9999):
        assert stieltjes_inverse(const_prof, g) == pytest.approx(g + 1 / g, rel=1e-13)


def test_inverse_small_theta_tail(const_prof):
    v = stieltjes_inverse(const_prof, 1e-3)
    assert v == pytest.approx(1e3, rel=1e-2)


def test_inverse_out_of_range(const_prof):
    with pytest.raises(ValueError):
        stieltjes_inverse(const_prof, 1.5)  # G(2+) = 1 for the semicircle
    with pytest.raises(ValueError):
        stieltjes_inverse(const_prof, -0.2)


# -- log potential -------------------------------------------------------------


def test_log_potential_semicircle_against_density_quadrature(const_prof):
    for x in (2.05, 3.0, 5.0):
        ref, _ = quad(lambda y: np.log(x - y) * oracles.sc_density(y), -2.0, 2.0, limit=200)
        assert log_potential(const_prof, x) == pytest.approx(ref, abs=1e-6)


def test_log_potential_far_field(const_prof):
    assert log_potential(const_prof, 1e3) == pytest.approx(np.log(1e3), abs=1e-3)


def test_log_potential_derivative_is_G(named_profiles):
    h = 1e-4
    for prof in named_profiles:
        _, r = support_edge(prof)
        x = r + 0.7
        fd = (log_potential(prof, x + h) - log_potential(prof, x - h)) / (2 * h)
        assert fd == pytest.approx(stieltjes_total(prof, x), abs=1e-5)


def test_log_potential_below_edge_raises(const_prof):
    with pytest.raises(ValueError):
        log_potential(const_prof, 1.0)


def _log_potential_by_tail_quadrature(prof, x):
    """log x - integral_x^inf (G(s) - 1/s) ds, mapped to (0, 1] by s = x/t."""
    tail, _ = quad(
        lambda t: (stieltjes_total(prof, x / t) - t / x) * x / t**2,
        0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    return np.log(x) - tail


_LOG_POTENTIAL_OFFSETS = (1e-5, 1e-3, 0.1, 1.0, 20.0)


def test_log_potential_closed_form_matches_tail_quadrature(named_profiles):
    rng = np.random.default_rng(29)
    for prof in list(named_profiles) + [random_profile(rng, pmax=5) for _ in range(10)]:
        _, r = support_edge(prof)
        for d in _LOG_POTENTIAL_OFFSETS:
            ref = _log_potential_by_tail_quadrature(prof, r + d)
            assert abs(log_potential(prof, r + d) - ref) < 1e-10, (prof.p, d)


def test_log_potential_scaling(named_profiles):
    # sigma -> c sigma stretches the measure by sqrt(c): L_{c sigma}(x) = L(x / sqrt c) + log(c)/2
    rng = np.random.default_rng(31)
    for prof in list(named_profiles) + [random_profile(rng, pmax=5) for _ in range(4)]:
        _, r = support_edge(prof)
        c = rng.uniform(0.3, 3.0)
        scaled = VarianceProfile(prof.weights, c * prof.sigma)
        for d in (0.01, 0.5, 5.0):
            x = np.sqrt(c) * (r + d)
            lhs = log_potential(scaled, x)
            assert lhs == pytest.approx(log_potential(prof, x / np.sqrt(c)) + 0.5 * np.log(c), abs=1e-11)


def test_memos_bounded():
    for fn in (support_edge, _solve_real_at):
        assert fn.cache_info().maxsize == _MEMO_SIZE


def _error(call):
    """The type and text of the error that call() raises."""
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("seed", range(4))
def test_real_axis_rows_independent_of_batch(seed):
    # every row of the real-axis cores is its one-row call bit for bit: alone,
    # stacked and permuted; beside rows that fail (x <= 0 or below the edge) the
    # real solve's rows keep their bits and the failed ones are NaN, and a
    # bordered batch with rows that fail (2 theta <= 0 or beyond G at the edge)
    # raises the one-row error of the first of them in argument order
    rng = np.random.default_rng(seed)
    prof = random_profile(rng, pmax=6)
    _, r = support_edge(prof)
    xs = np.append(r + rng.uniform(1e-6, 3.0, 10), [r - 0.1, 0.0, -1.0])
    alone = [_solve_real(prof, [x])[0].tobytes() for x in xs]
    for perm in (np.arange(xs.size), rng.permutation(xs.size)):
        assert [m.tobytes() for m in _solve_real(prof, xs[perm])] == [alone[k] for k in perm]
    M = _solve_real(prof, xs)
    assert np.isfinite(M[:10]).all() and np.isnan(M[10:]).all()
    assert [m.tobytes() for m in M[:10]] == [_solve_real_at(prof, x).tobytes() for x in xs[:10]]
    g = M[:10] @ prof.weights
    tts = g * rng.uniform(0.01, 1.0, 10)
    alone = [np.column_stack(_inverse_solve(prof, [t])).tobytes() for t in tts]
    for perm in (np.arange(tts.size), rng.permutation(tts.size)):
        v, m = _inverse_solve(prof, tts[perm])
        assert [row.tobytes() for row in np.column_stack([v, m])] == [alone[k] for k in perm]
    bad = [-0.1, 2.0 * g.max() + 5.0]
    errors = [_error(lambda: _inverse_solve(prof, [t])) for t in bad]
    assert errors[0][0] is UsageError and errors[1][0] is ValueError
    for order in ((0, 1), (1, 0)):
        args = np.insert(tts, [3, 7], [bad[k] for k in order])
        assert _error(lambda: _inverse_solve(prof, args)) == errors[order[0]]
    # the fold system from its start, perturbed starts and a start off the positive cone
    F, tol, z0, _ = _fold_system(prof)
    starts = np.vstack([z0, z0 * rng.uniform(0.97, 1.03, (3, z0.size)), -z0])
    z, ok = _damped_newton(F, tol, starts, prof.p)
    assert ok[0] and not ok[-1]
    for perm in (range(len(starts)), rng.permutation(len(starts))):
        zp, okp = _damped_newton(F, tol, starts[list(perm)], prof.p)
        assert np.array_equal(okp, ok[list(perm)]) and zp.tobytes() == z[list(perm)].tobytes()
    for k in range(len(starts)):
        zk, okk = _damped_newton(F, tol, starts[k : k + 1], prof.p)
        assert okk[0] == ok[k] and zk.tobytes() == z[k : k + 1].tobytes()


def test_solve_real_memo_is_read_only(const_prof):
    # a write into the memoized m would change every later result at (profile, x)
    m = _solve_real_at(const_prof, 3.0)
    with pytest.raises(ValueError):
        m[0] = 1.0
    assert _solve_real_at(const_prof, 3.0)[0] == pytest.approx(SC_M3, abs=1e-12)


def test_edge_memo_shared_by_equal_profiles():
    w, s = np.array([0.3, 0.7]), np.array([[1.0, 0.25], [0.25, 0.5]])
    first = support_edge(VarianceProfile(w, s, label="one"))
    hits = support_edge.cache_info().hits
    again = support_edge(VarianceProfile(w.copy(), s.copy(), label="two"))
    assert again == first
    assert support_edge.cache_info().hits == hits + 1
