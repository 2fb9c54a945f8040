import numpy as np
import pytest
from scipy.integrate import quad

from wigner_ldp import oracles
from wigner_ldp.dyson import (
    _MEMO_SIZE,
    ConvergenceError,
    _residual,
    _solve_complex_many,
    _solve_real,
    fixed_point_map,
    hyperbolic_D,
    hyperbolic_distance,
    log_potential,
    solve_dyson,
    solve_dyson_finite,
    spectral_measure,
    stieltjes_inverse,
    stieltjes_total,
    support_edge,
)
from wigner_ldp.profiles import VarianceProfile

from conftest import random_profile

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


def _random_batch(seed, n=40):
    rng = np.random.default_rng(seed)
    prof = random_profile(rng)
    zs = rng.uniform(-4, 4, n) + 1j * 10 ** rng.uniform(-1.7, 0.5, n)
    return prof, zs


@pytest.mark.parametrize("seed", range(6))
def test_solve_complex_many_row_independent_of_batch(seed):
    prof, zs = _random_batch(seed)
    m0, _ = _solve_complex_many(prof, zs + 0.05j)
    perm = np.random.default_rng(seed).permutation(zs.size)
    for start in (None, m0):
        rows = (lambda sel: None) if start is None else (lambda sel: start[sel])
        m, its = _solve_complex_many(prof, zs, start)
        for i in range(zs.size):
            mi, iti = _solve_complex_many(prof, zs[i : i + 1], rows(slice(i, i + 1)))
            assert np.all(mi[0] == m[i]) and iti[0] == its[i]
        mp, _ = _solve_complex_many(prof, zs[perm], rows(perm))
        assert np.all(mp == m[perm])


@pytest.mark.parametrize("seed", range(6))
def test_solve_complex_many_herglotz_and_residual(seed):
    prof, zs = _random_batch(seed, n=200)
    m, _ = _solve_complex_many(prof, zs)
    assert np.all(np.imag(m) < 0)
    assert np.all(_residual(prof, zs[:, None], m) < 1e-10 * (1 + np.abs(zs)))


def test_solve_complex_many_nan_row(block_14):
    zs = np.array([1.0 + 1.0j, complex(np.nan, 1.0), complex(np.nan, np.nan), 0.5 + 0.2j])
    m, its = _solve_complex_many(block_14, zs)
    assert np.all(np.isnan(m[1:3])) and np.all(its[1:3] == 0)
    ok, _ = _solve_complex_many(block_14, zs[[0, 3]])
    assert np.all(m[[0, 3]] == ok)


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


def test_hyperbolic_distance_basics():
    u = np.array([0.3 - 0.4j, -1.0 - 2.0j])
    v = np.array([0.1 - 0.9j, -1.1 - 1.5j])
    assert hyperbolic_distance(u, u) == 0.0
    assert hyperbolic_distance(u, v) == pytest.approx(hyperbolic_distance(v, u))
    assert hyperbolic_distance(u, v) > 0


@pytest.mark.parametrize("z", [-1.0984 + 0.0053j, 1.3199 + 0.0002j, -1.4869 + 0.0002j])
def test_solve_dyson_cold_start_near_axis(z):
    # a single solve from 1/z stalls at these z; the Im z ladder converges
    prof = random_profile(np.random.default_rng(1))
    sol = solve_dyson(prof, z)
    assert np.all(np.imag(sol.m) < 0)
    assert sol.residual < 1e-10 * (1 + abs(z))


def test_solve_dyson_cold_start_one_rung_far_from_axis(block_14):
    # Im z >= 0.25 is one solve from 1/z, as the batch solve gives it
    for z in (0.3 + 0.25j, -1.0 + 2.0j):
        m, its = _solve_complex_many(block_14, np.array([z]))
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


def test_spectral_measure_validates_args(const_prof):
    with pytest.raises(ValueError):
        spectral_measure(const_prof, 2.0, -2.0, 100)
    with pytest.raises(ValueError):
        spectral_measure(const_prof, -2.0, 2.0, 100, eta_schedule=(1e-3, 1e-2))
    for x_min, x_max in ((-2.0, np.inf), (np.nan, 2.0), (-np.inf, 2.0)):
        with pytest.raises(ValueError):
            spectral_measure(const_prof, x_min, x_max, 100)


def test_spectral_measure_csv(const_prof):
    sm = spectral_measure(const_prof, -2.2, 2.2, 41)
    text = sm.to_csv()
    head = text.splitlines()[0]
    assert head == "x,density,density_block_1"
    assert len(text.splitlines()) == 42


# -- edges --------------------------------------------------------------------


def test_edges(const_prof, wishart2, block_14):
    _, r = support_edge(const_prof)
    assert r == pytest.approx(2.0, abs=1e-4)
    _, rw = support_edge(wishart2)
    # edge of the symmetrized MP pushforward: (1 + sqrt(alpha)) / sqrt(1 + alpha)
    assert rw == pytest.approx(oracles.wishart_edge(2.0), abs=1e-3)
    _, rb = support_edge(block_14)
    assert rb == pytest.approx(2 * np.sqrt(2.0), abs=1e-3)


def test_edges_pinned(named_profiles):
    # the batched scan and bisection reproduce the one-point-at-a-time
    # bisection's brackets, so r is pinned bit for bit
    expected = (2.0000070095062252, 1.3938549518585208, 2.8284301280975335, 2.30940536721227)
    for prof, r in zip(named_profiles, expected):
        assert support_edge(prof)[1] == r


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
        xs = np.linspace(r + 1e-3, r + 4, 100)
        gs = [stieltjes_total(prof, float(x)) for x in xs]
        assert np.all(np.diff(gs) < 0)


def test_stieltjes_below_edge_raises(const_prof):
    with pytest.raises(ValueError):
        stieltjes_total(const_prof, 1.9)


def test_inverse_round_trip(const_prof):
    g3 = stieltjes_total(const_prof, 3.0)
    assert stieltjes_inverse(const_prof, g3) == pytest.approx(3.0, abs=1e-8)


def test_inverse_semicircle_half(const_prof):
    # G^-1(g) = g + 1/g for the semicircle
    assert stieltjes_inverse(const_prof, 0.5) == pytest.approx(2.5, abs=1e-10)


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


def test_solution_json_round_trip(const_prof):
    import json

    sol = solve_dyson(const_prof, 2j)
    d = json.loads(sol.to_json())
    assert d["z"] == [0.0, 2.0]
    assert d["residual"] == sol.residual


def test_memos_bounded():
    for fn in (support_edge, log_potential, stieltjes_inverse, _solve_real):
        assert fn.cache_info().maxsize == _MEMO_SIZE


def test_edge_memo_shared_by_equal_profiles():
    w, s = np.array([0.3, 0.7]), np.array([[1.0, 0.25], [0.25, 0.5]])
    first = support_edge(VarianceProfile(w, s, label="one"))
    hits = support_edge.cache_info().hits
    again = support_edge(VarianceProfile(w.copy(), s.copy(), label="two"))
    assert again == first
    assert support_edge.cache_info().hits == hits + 1
