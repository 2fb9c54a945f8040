import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import hyp1f1
from scipy.stats import ks_2samp

from wigner_ldp import mc, oracles
from wigner_ldp.dyson import support_edge
from wigner_ldp.mc import (
    DiscreteMeasure,
    InconclusiveError,
    annealed_integral_mc,
    eig_top,
    entry_log_mgf,
    profile_dirichlet_check,
    projected_empirical,
    quantile_spectrum_matrix,
    sample_matrix,
    spherical_integral_mc,
    tail_estimate,
    tilted_outlier_check,
    vector_profile,
    wasserstein1,
    wilson_interval,
)
from wigner_ldp.profiles import UsageError, VarianceProfile, wishart_profile
from wigner_ldp.ratefn import eval_J, eval_K, eval_phi, rate_function


# -- sampler -------------------------------------------------------------------


def test_sampler_symmetric_and_deterministic(const_prof):
    H1 = sample_matrix(const_prof, 30, "gaussian", seed=42)
    H2 = sample_matrix(const_prof, 30, "gaussian", seed=42)
    assert np.array_equal(H1, H1.T)
    assert np.array_equal(H1, H2)
    H3 = sample_matrix(const_prof, 30, "gaussian", seed=43)
    assert not np.array_equal(H1, H3)


def test_sampler_rademacher_magnitudes(const_prof):
    H = sample_matrix(const_prof, 16, "rademacher", seed=0)
    off = np.abs(H[np.triu_indices(16, 1)])
    assert np.allclose(off, 1 / np.sqrt(16))


def test_sampler_wishart_checkerboard(wishart2):
    # zero diagonal blocks: entries vanish exactly inside each block
    N = 12
    H = sample_matrix(wishart2, N, "gaussian", seed=1)
    b = wishart2.row_blocks(N)
    same = b[:, None] == b[None, :]
    assert np.all(H[same] == 0.0)
    assert np.any(H[~same] != 0.0)


def test_sampler_rejects_tiny(const_prof):
    with pytest.raises(ValueError):
        sample_matrix(const_prof, 1)


def test_streams_pinned(block_14, const_prof):
    # the full-matrix streams that seeded results such as criterion 11 rest on
    pins = {
        "gaussian": "66ba7c8510ec1b6a5ed5a4d73e7b91ca87ab493b4c969a4227db8021b8de444b",
        "rademacher": "b5bb231777bba8be604380ea5a9174e73a294741010e97e92ab14f6f0078ff6c",
    }
    for dist, digest in pins.items():
        H = sample_matrix(block_14, 12, dist, seed=3)
        assert hashlib.sha256(H.tobytes()).hexdigest() == digest
    # collect_batch and _top_pairs: dsyevr's bits, and eigh's lambda_1 of the same draws to 1e-12
    lam1 = mc.collect_batch(block_14, 30, 4, seed=2).lambda1
    assert lam1.tolist() == [2.7797859490574743, 2.278526451633927, 2.682359187335568, 2.70350228722074]
    ref = [eig_top(sample_matrix(block_14, 30, seed=[2, i]))[0] for i in range(4)]
    assert np.allclose(lam1, ref, rtol=0, atol=1e-12)
    rep = tilted_outlier_check(const_prof, 3.0, [1.0], N=100, samples=4, seed=0)
    # at theta* = (3 + sqrt 5)/4 to rounding
    tilt = [2.890006624192158, 3.0111179125895946, 3.0761935050833125, 3.054278994948759]
    assert np.allclose(rep["lambda1"], tilt, rtol=0, atol=1e-12)
    # validate --suite mc-heavy: lambda_1 of sample_matrix(seed=[2, 77, i]) through _top_pairs
    heavy = [2.340043361744861, 2.6804014084806513, 2.3952973285143693, 2.1471597934032567]
    assert mc._top_pairs(block_14, 30, "gaussian", [2, 77], 4)[0].tolist() == heavy
    ref = [eig_top(sample_matrix(block_14, 30, seed=[2, 77, i]))[0] for i in range(4)]
    assert np.allclose(heavy, ref, rtol=0, atol=1e-12)
    # validate --suite mc-light: first row of the variance draw, chunk 0 of key [5, 6]
    light = [0.6282363391062198, 0.10439010450125093, -0.1417158389149778, 0.43902401691353354,
             0.8933285594420118, -0.6512250422180655, 0.07140563865044486, -0.1065906356741175,
             0.22493638232646698, -0.0928780922663611, 0.030810442940602756, -0.7778257644532812,
             -0.8419351875700861, 0.578817750216903, 0.5912724152148904, -1.0970182390808616,
             -0.4822403649317964, -0.06819346547213742, 0.29263681797194124, 0.3340888859327338,
             -0.21158040673113876]
    _, rows, rng = next(mc._chunks([5, 6], 79 * mc.MC_CHUNK, mc.MC_CHUNK))
    assert rows == mc.MC_CHUNK
    sd = mc._packed_layout(const_prof, 6)[1]
    assert mc._packed_draw(sd, "gaussian", rng, rows)[0].tolist() == light


def test_variance_calibration(block_14):
    # the variances the tail estimator draws: sigma_ij/N off the diagonal,
    # 2 sigma_ii/N on it, in both blocks
    N = 6
    layout_var, sd, diag = mc._packed_layout(block_14, N)
    draws = [mc._packed_draw(sd, "gaussian", rng, rows)
             for _, rows, rng in mc._chunks([5, N], 200 * mc.MC_CHUNK, mc.MC_CHUNK)]
    var = np.concatenate(draws).var(axis=0) * N
    j, i = np.triu_indices(N)
    assert np.array_equal(diag, i == j)
    assert np.all(i >= j) and i.size == N * (N + 1) // 2
    assert np.all(np.diff(j * N + i) > 0)  # column by column
    b = block_14.row_blocks(N)
    S = block_14.sigma[np.ix_(b, b)]
    for (r, c) in [(1, 0), (5, 4), (0, 0), (5, 5)]:
        k = np.flatnonzero((i == r) & (j == c))[0]
        target = (2.0 if r == c else 1.0) * S[r, c]
        assert layout_var[k] == target and sd[k] == np.sqrt(target / N)
        if target == 0:
            assert var[k] == 0.0
        else:
            assert abs(var[k] / target - 1) < 0.02


@pytest.mark.parametrize("dist", mc.ENTRY_KINDS)
def test_sharp_subgaussian_certificate(dist):
    t = np.linspace(-5, 5, 401)
    lm = entry_log_mgf(dist, t)
    assert np.all(lm <= t * t / 2 + 1e-12)
    if dist == "gaussian":
        assert np.allclose(lm, t * t / 2)
    else:
        interior = np.abs(t) > 0.5
        assert np.all(lm[interior] < t[interior] ** 2 / 2)


def test_uniform_log_mgf_far_tail():
    t = np.linspace(-5, 5, 401)
    a = np.sqrt(3.0) * np.abs(t[t != 0])
    ref = np.log(np.sinh(a) / a)
    assert np.allclose(entry_log_mgf("uniform", t[t != 0]), ref, rtol=1e-14, atol=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = entry_log_mgf("uniform", np.array([-500.0, 500.0]))
    assert np.all(np.isfinite(far)) and np.all(far <= 500.0**2 / 2)
    assert far == pytest.approx(858.5683423611224, rel=1e-12)


def test_entry_unit_variance():
    rng = np.random.default_rng(0)
    from wigner_ldp.mc import _draw

    for dist in mc.ENTRY_KINDS:
        x = _draw(rng, 200000, dist)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.01


# -- eig_top and projections ----------------------------------------------------


def test_eig_top_diag():
    lam1, v1 = eig_top(np.diag([3.0, 1.0, 0.0]))
    assert lam1 == 3.0
    assert np.allclose(np.abs(v1), [1, 0, 0])
    assert v1[0] > 0


def test_eig_top_exchange():
    lam1, v1 = eig_top(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lam1 == pytest.approx(1.0)
    assert np.allclose(v1, [1 / np.sqrt(2)] * 2)


def test_eig_top_concentration(const_prof):
    lams = [eig_top(sample_matrix(const_prof, 300, "gaussian", seed=s))[0] for s in range(12)]
    assert abs(np.mean(lams) - 2.0) < 0.1
    assert np.std(lams) < 0.1


def test_projected_empirical_identity_block(const_prof):
    H = sample_matrix(const_prof, 50, "gaussian", seed=3)
    (meas,) = projected_empirical(H, const_prof)
    assert meas.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.sort(meas.atoms), np.linalg.eigvalsh(H))


def test_projected_weights_resolution_of_identity(block_14):
    N = 40
    H = sample_matrix(block_14, N, "gaussian", seed=4)
    measures = projected_empirical(H, block_14)
    tot = sum(m.weights for m in measures)
    assert np.allclose(tot, 1.0 / N, atol=1e-12)


def _wishart_block_reference(alpha, k, weight):
    """Oracle block measure: closed-form density plus the zero atom."""
    lo = (np.sqrt(alpha) - 1) / np.sqrt(1 + alpha)
    hi = oracles.wishart_edge(alpha)
    xs = np.concatenate([np.linspace(-hi, -lo, 2000), np.linspace(lo, hi, 2000)])
    dens = weight * oracles.wishart_block_density(alpha, xs, k)
    wts = np.gradient(xs) * dens
    atoms, weights = xs, wts
    if k == 2:
        atom_mass = weight * (1 - 1 / alpha)
        atoms = np.concatenate([atoms, [0.0]])
        weights = np.concatenate([weights * (weight * (1 / alpha)) / weights.sum(), [atom_mass]])
    else:
        weights = weights * weight / weights.sum()
    return DiscreteMeasure(atoms, weights)


def test_projected_empirical_wishart_w1(wishart2):
    N = 600
    H = sample_matrix(wishart2, N, "gaussian", seed=7)
    measures = projected_empirical(H, wishart2)
    for k in (1, 2):
        ref = _wishart_block_reference(2.0, k, wishart2.weights[k - 1])
        emp = measures[k - 1]
        # align total masses exactly (finite-N block sizes vs weights)
        emp = DiscreteMeasure(emp.atoms, emp.weights * ref.total_mass / emp.total_mass)
        assert wasserstein1(emp, ref) < 0.05


# -- Wasserstein ------------------------------------------------------------------


def test_w1_identical_zero():
    m = DiscreteMeasure(np.array([0.5, 1.0]), np.array([0.3, 0.7]))
    assert wasserstein1(m, m) == 0.0


def test_w1_point_masses():
    d0 = DiscreteMeasure(np.array([0.0]), np.array([1.0]))
    d1 = DiscreteMeasure(np.array([1.0]), np.array([1.0]))
    assert wasserstein1(d0, d1) == 1.0


def test_w1_matches_the_cdf_gap_integral():
    # W1 = integral of |F1 - F2|; F is a step function, so evaluating it at the
    # midpoint of each cell between pooled atoms gives the integral exactly
    rng = np.random.default_rng(4)
    for n1, n2 in [(1, 5), (7, 7), (30, 12)]:
        a1, a2 = rng.normal(size=n1), rng.normal(0.3, 2.0, size=n2)
        w1, w2 = rng.dirichlet(np.ones(n1)), rng.dirichlet(np.ones(n2))
        a1[0] = a2[0]  # a shared atom
        b = np.unique(np.concatenate([a1, a2]))
        mid = (b[1:] + b[:-1]) / 2
        F1 = np.array([w1[a1 <= t].sum() for t in mid])
        F2 = np.array([w2[a2 <= t].sum() for t in mid])
        ref = np.sum(np.abs(F1 - F2) * np.diff(b))
        got = wasserstein1(DiscreteMeasure(a1, w1), DiscreteMeasure(a2, w2))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert wasserstein1(DiscreteMeasure(a2, w2), DiscreteMeasure(a1, w1)) == pytest.approx(got, rel=1e-12)


def test_w1_uniform_samples():
    rng = np.random.default_rng(1)
    u = rng.uniform(0, 1, 10**4)
    emp = DiscreteMeasure(u, np.full(u.size, 1.0 / u.size))
    ref = DiscreteMeasure((np.arange(200) + 0.5) / 200, np.full(200, 1.0 / 200))
    assert wasserstein1(emp, ref) < 0.02


def test_w1_mass_mismatch():
    d0 = DiscreteMeasure(np.array([0.0]), np.array([1.0]))
    d1 = DiscreteMeasure(np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        wasserstein1(d0, d1)


# -- spherical integral -------------------------------------------------------------


def test_spherical_zero_cases(const_prof):
    M = quantile_spectrum_matrix(const_prof, 60, 3.0)
    assert spherical_integral_mc(M, 0.0, 2000, seed=0).value == 0.0
    assert spherical_integral_mc(np.zeros((40, 40)), 1.3, 2000, seed=0).value == 0.0


def test_spherical_matches_J_moderate_tilt(const_prof):
    # at small theta and moderate N the plain estimator resolves the limit
    M = quantile_spectrum_matrix(const_prof, 80, 3.0)
    est = spherical_integral_mc(M, 0.15, 4 * 10**4, seed=0)
    ref = eval_J(const_prof, 3.0, 0.15)
    assert abs(est.value - ref) < 0.03
    assert est.stderr < 0.05


@pytest.mark.parametrize("prof, atom", [
    (wishart_profile(2.0), 1 / 3),  # atom at 0 of mass (alpha - 1) / (alpha + 1)
    (wishart_profile(5.0), 2 / 3),
    (VarianceProfile([0.2, 0.5, 0.3], [[0, 1, 2], [1, 0, 0], [2, 0, 0]]), 0.6),  # 0.8 - 0.2
], ids=["wishart2", "wishart5", "3-block-atom"])
def test_quantile_spectrum_keeps_the_atom(prof, atom):
    # the points spectral_measure flags around an atom carry its mass
    lam = np.diag(quantile_spectrum_matrix(prof, 600, 10.0))[:-1]
    assert abs(np.mean(np.abs(lam) < 0.05) - atom) < 0.01


def test_spherical_needs_samples(const_prof):
    with pytest.raises(ValueError):
        spherical_integral_mc(np.zeros((10, 10)), 0.1, 10)


@pytest.mark.parametrize("theta", [0.3, 1.0])
def test_spherical_rank_one_matches_hyp1f1(theta):
    # exact finite-N value: u_N^2 ~ Beta(1/2, (N-1)/2), so the sphere average
    # of exp(theta N lam u_N^2) is 1F1(1/2; N/2; theta N lam)
    N, lam = 150, 3.0
    M = np.diag(np.r_[np.zeros(N - 1), lam])
    exact = np.log(hyp1f1(0.5, N / 2, theta * N * lam)) / N
    est = spherical_integral_mc(M, theta, 10**5, seed=0)
    assert abs(est.value - exact) < 1e-3
    # (M, theta) -> (-M, -theta) leaves the integrand unchanged
    neg = spherical_integral_mc(-M, -theta, 10**5, seed=0)
    assert abs(neg.value - exact) < 1e-3
    assert neg.extra["z"] < -lam < 0 < lam < est.extra["z"]


@pytest.mark.parametrize("theta", [0.5, 10.0, 50.0])
def test_spherical_saddle_point_and_ess(theta):
    M = np.diag(np.r_[np.linspace(-2.0, 2.0, 59), 3.0])
    est = spherical_integral_mc(M, theta, 4000, seed=0)
    z = est.extra["z"]
    lam = np.linalg.eigvalsh(M)
    gaps = lam.max() - lam
    d = mc._saddle_gap(gaps, theta)
    # z is the root: lambda_max + d, with d solving the gap form to rounding
    assert z == lam.max() + d and d > 0
    assert np.mean(1.0 / (d + gaps)) == pytest.approx(2.0 * theta, rel=1e-13)
    # read at z itself, the equation also carries the rounding of lambda_max + d:
    # at most half an ulp of z, against the gap d that dominates the mean at large theta
    assert np.mean(1.0 / (z - lam)) == pytest.approx(2.0 * theta, rel=1e-13 + math.ulp(z) / d)
    assert 0 < est.extra["ess"] <= 4000
    # uniform proposal: z at infinity and every weight equal
    flat = spherical_integral_mc(M, 0.0, 4000, seed=0)
    assert flat.extra["z"] == np.inf
    assert flat.extra["ess"] == pytest.approx(4000.0)


@pytest.mark.parametrize("c, theta", [(2.5, 0.3), (2.5, -0.3), (-1.3, 0.7), (2.5, 0.0)])
def test_spherical_constant_weight_draws_nothing(c, theta, monkeypatch):
    # M = cI or theta = 0: every sample would carry the same log weight theta N c
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sphere was sampled for a constant integrand")

    monkeypatch.setattr(mc, "_chunks", no_sampling)
    est = spherical_integral_mc(c * np.eye(30), theta, 4000, seed=0)
    assert est.value == theta * c and est.stderr == 0.0
    assert est.extra["ess"] == 4000.0 and est.extra["z"] == np.copysign(np.inf, theta)


def test_spherical_warns_on_low_ess(monkeypatch):
    M = np.diag(np.r_[np.linspace(-2.0, 2.0, 59), 3.0])
    monkeypatch.setattr(mc, "ESS_FLOOR", 10**6)
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        spherical_integral_mc(M, 0.5, 2000, seed=0)


@pytest.mark.parametrize(
    "matrix, theta",
    [
        (np.zeros((4, 5)), 0.5),
        (np.triu(np.ones((5, 5))), 0.5),
        (np.diag([1.0, np.nan, 0.0]), 0.5),
        (np.diag([1.0, np.inf, 0.0]), 0.5),
        (np.eye(5), np.nan),
        (np.eye(5), np.inf),
    ],
)
def test_spherical_rejects_bad_input(matrix, theta):
    with pytest.raises(ValueError):
        spherical_integral_mc(matrix, theta, 1000)


# -- annealed integral ----------------------------------------------------------------


def test_annealed_constant_exact(const_prof):
    est = annealed_integral_mc(const_prof, 0.6, [1.0], 0.2, 200, 20000, seed=0)
    assert est.value == pytest.approx(0.36, abs=1e-9)
    assert est.hits == 20000
    assert est.stderr == 0.0


def test_annealed_zero_tilt_window(wishart2):
    est = annealed_integral_mc(wishart2, 0.0, wishart2.weights, 0.2, 200, 20000, seed=0)
    assert -0.01 < est.value <= 0.0


def test_annealed_wishart_matches_K(wishart2):
    _, r = support_edge(wishart2)
    x = r + 0.3
    theta = 0.6
    psi_star = rate_function(wishart2, x).psi_star
    phi = eval_phi(wishart2, theta, x, psi_star)
    est = annealed_integral_mc(wishart2, theta, phi, 0.1, 200, 2 * 10**5, seed=0)
    assert abs(est.value - eval_K(wishart2, theta, phi)) < 7e-2


def test_annealed_one_hit_has_no_stderr(wishart2):
    # one value in the window leaves no group to leave out
    est = annealed_integral_mc(wishart2, 0.5, [0.5, 0.5], 2e-4, 20, 2000, seed=4)
    assert est.hits == 1
    assert np.isfinite(est.value) and np.isnan(est.stderr)


def test_jackknife_leaves_out_only_nonempty_groups():
    # 11 values fall in ceil(11/2) = 6 groups of 2, 2, 2, 2, 2, 1
    vals = np.random.default_rng(5).normal(size=11)
    n_total = 40
    full, se = mc._jackknife_logmean(vals, n_total)
    assert full == pytest.approx(np.log(np.exp(vals).sum() / n_total), rel=1e-14)
    groups = [np.arange(k, min(k + 2, 11)) for k in range(0, 11, 2)]
    parts = np.array([np.log(np.exp(np.delete(vals, g)).sum() / (n_total - g.size)) for g in groups])
    direct = np.sqrt(5 / 6 * np.sum((parts - parts.mean()) ** 2))
    assert se == pytest.approx(direct, rel=1e-12)


def test_annealed_empty_window(wishart2):
    with pytest.raises(InconclusiveError):
        annealed_integral_mc(wishart2, 0.5, [0.99, 0.01], 0.01, 200, 2000, seed=0)


# -- Dirichlet profile of sphere vectors ------------------------------------------------


@pytest.mark.parametrize("weights, N", [(None, 20), ([0.45, 0.05, 0.5], 8)])
def test_mass_draws_follow_the_sphere(wishart2, weights, N):
    # the Dirichlet sampler against the block masses of normalised normal rows
    prof = wishart2 if weights is None else VarianceProfile(weights, np.diag([1.0, 2.0, 4.0]))
    samples = 20000
    rho = np.concatenate([r for _, r in mc._mass_draws(prof, N, 3, samples)])
    sphere = np.concatenate([vector_profile(prof, rng.standard_normal((rows, N)))
                             for _, rows, rng in mc._chunks([7], samples, 16 * mc.MC_CHUNK)])
    empty = np.bincount(prof.row_blocks(N), minlength=prof.p) == 0
    assert rho.shape == (samples, prof.p)
    assert np.all(rho[:, empty] == 0.0)
    assert np.allclose(rho.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for k in np.flatnonzero(~empty):
        assert ks_2samp(rho[:, k], sphere[:, k]).pvalue > 0.01
    if weights is not None:
        assert empty.tolist() == [False, True, False]


def test_mass_draws_chunks(block_14):
    # each chunk of MC_CHUNK * 16 rows is drawn from default_rng([seed, chunk index])
    size, N = 16 * mc.MC_CHUNK, 30
    shape = np.bincount(block_14.row_blocks(N), minlength=2) / 2.0
    chunks = list(mc._mass_draws(block_14, N, 9, 2 * size + 5))
    assert [(done, rho.shape[0]) for done, rho in chunks] == [(0, size), (size, size), (2 * size, 5)]
    for ci, (_, rho) in enumerate(chunks):
        ref = np.random.default_rng([9, ci]).standard_gamma(shape, size=rho.shape)
        assert np.array_equal(rho, ref / ref.sum(axis=1, keepdims=True))


def test_dirichlet_single_block(const_prof):
    rep = profile_dirichlet_check(const_prof, 50, 5000, seed=0)
    assert rep["max_mean_dev"] == 0.0
    assert rep["max_cov_dev"] == 0.0


def test_dirichlet_two_equal_blocks(block_14):
    rep = profile_dirichlet_check(block_14, 100, 10**5, seed=0)
    assert rep["max_mean_dev"] < 3 * rep["se_mean"].max() + 1e-9
    # Dirichlet(25, 25): Var rho_1 = 0.25/51
    assert rep["cov_emp"][0, 0] == pytest.approx(0.25 / 51, rel=0.05)


# -- tilted ensemble --------------------------------------------------------------------


def test_tilted_outlier_constant(const_prof):
    rep = tilted_outlier_check(const_prof, 3.0, [1.0], N=200, samples=20, seed=0)
    assert rep["theta_star"] == pytest.approx((3 + np.sqrt(5)) / 4, abs=1e-8)
    assert abs(rep["mean_lambda1"] - 3.0) < 0.15


@pytest.mark.parametrize("N, samples", [(0, 3), (-1, 3), (5, 0), (5, -2)])
def test_batch_and_tilt_reject_empty_sizes(const_prof, N, samples):
    bad = "N" if N < 1 else "samples"
    with pytest.raises(UsageError, match=f"^{bad} must be"):
        mc.collect_batch(const_prof, N, samples)
    with pytest.raises(UsageError, match=f"^{bad} must be"):
        tilted_outlier_check(const_prof, 3.0, [1.0], N=N, samples=samples)


def test_batch_and_tilt_accept_one_row(const_prof):
    assert mc.collect_batch(const_prof, 1, 2).lambda1.shape == (2,)
    rep = tilted_outlier_check(const_prof, 3.0, [1.0], N=1, samples=2)
    assert np.all(np.isfinite(rep["lambda1"]))


def test_zero_tilt_sticks_to_edge(const_prof):
    lams = [eig_top(sample_matrix(const_prof, 300, "gaussian", seed=s))[0] for s in range(8)]
    _, r = support_edge(const_prof)
    assert abs(np.mean(lams) - r) < 0.1


def test_tilted_outlier_block_profile(block_14):
    # mass pushed onto the first block: outlier appears, eigenvector follows phi
    _, r = support_edge(block_14)
    x = r + 0.6
    rep = tilted_outlier_check(block_14, x, [1.0, 0.0], N=300, samples=12, seed=0)
    assert abs(rep["mean_lambda1"] - x) < 0.12
    assert rep["mean_profile_gap"] < 0.1


# -- tail frequencies ----------------------------------------------------------------------


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0


def test_tail_bulk_event(const_prof):
    pts = tail_estimate(const_prof, 0.5, [30], 500, "gaussian", seed=0)
    assert pts[0].p_hat > 0.99
    assert pts[0].rate == pytest.approx(0.0, abs=1e-3)


def test_tail_trend_toward_rate(const_prof):
    pts = tail_estimate(const_prof, 2.2, [20, 40], 4 * 10**4, "gaussian", seed=0)
    ref = oracles.goe_rate(2.2)
    assert pts[0].rate > pts[1].rate > ref
    assert pts[0].hits > 0 and pts[1].hits > 0


def test_tail_zero_hits_one_sided(const_prof):
    pts = tail_estimate(const_prof, 3.5, [30], 400, "gaussian", seed=0)
    assert pts[0].one_sided and np.isinf(pts[0].rate)
    assert np.isfinite(pts[0].rate_lo)


def test_tail_thread_count_invariance(const_prof, block_14):
    a = tail_estimate(const_prof, 2.2, [24], 3000, "gaussian", seed=9, threads=1)
    b = tail_estimate(const_prof, 2.2, [24], 3000, "gaussian", seed=9, threads=4)
    assert a[0].hits == b[0].hits
    a = tail_estimate(block_14, 3.0, [20], 3000, "rademacher", seed=9, threads=1)
    b = tail_estimate(block_14, 3.0, [20], 3000, "rademacher", seed=9, threads=3)
    assert a == b and 0 < a[0].hits < 3000


def test_tail_streams_differ_across_N(const_prof):
    # each N draws from its own stream [seed, N, chunk], so the per-N estimates are independent
    a, b = (mc._packed_draw(mc._packed_layout(const_prof, N)[1], "gaussian",
                            np.random.default_rng([3, N, 0]), 4) for N in (20, 40))
    assert not np.allclose(a[0, :20] * np.sqrt(20), b[0, :20] * np.sqrt(40))


def test_tail_points_independent_of_N_order(block_14):
    both = tail_estimate(block_14, 3.0, [20, 40], 2000, "gaussian", seed=4)
    assert tail_estimate(block_14, 3.0, [40, 20], 2000, "gaussian", seed=4) == both[::-1]
    for pt in both:
        assert tail_estimate(block_14, 3.0, [pt.N], 2000, "gaussian", seed=4) == [pt]


def _eigvalsh_hits(prof, x, N, samples, dist, seed):
    """lambda_1 >= x counts on the tail's chunk streams, rebuilt as full matrices."""
    hits = 0
    j, i = np.triu_indices(N)
    sd = mc._packed_layout(prof, N)[1]
    for _, cnt, rng in mc._chunks([seed, N], samples, mc.MC_CHUNK):
        vals = mc._packed_draw(sd, dist, rng, cnt)
        H = np.zeros((cnt, N, N))
        H[:, i, j] = vals
        H[:, j, i] = vals
        hits += int(np.sum(np.linalg.eigvalsh(H)[:, -1] >= x))
    return hits


@pytest.mark.parametrize("dist", ["gaussian", "rademacher"])
@pytest.mark.parametrize("N", [7, 20, 80])
def test_tail_hits_match_eigvalsh(block_14, N, dist):
    # pins the lower-triangle index map: a transposed view would factor the
    # wrong entries and miss this count; both sample counts end in a partial chunk
    x, seed = 3.0, 11
    for samples in (2000, 2 * mc.MC_CHUNK + 3):
        pt = tail_estimate(block_14, x, [N], samples, dist, seed=seed)[0]
        assert 0 < pt.hits < samples
        assert pt.hits == _eigvalsh_hits(block_14, x, N, samples, dist, seed)


def test_tail_one_factorization_per_matrix(block_14, monkeypatch):
    shapes = []
    dpotrf = mc.dpotrf

    def counted(a, **kw):
        shapes.append((a.shape, a.flags.f_contiguous))
        return dpotrf(a, **kw)

    monkeypatch.setattr(mc, "dpotrf", counted)
    tail_estimate(block_14, 3.0, [7, 20], 300, "gaussian", seed=1)
    assert shapes == [((7, 7), True)] * 300 + [((20, 20), True)] * 300


@pytest.mark.parametrize("N", [1, 7, 20])
def test_tail_draw_is_lapack_packed_lower(const_prof, N):
    # the tail unpacks each draw row with dtpttr, which reads packed lower
    # storage: entry (i, j), i >= j, column by column, exactly _packed_layout's order
    j, i = np.triu_indices(N)
    sd = mc._packed_layout(const_prof, N)[1]
    vals = mc._packed_draw(sd, "gaussian", np.random.default_rng([3, N, 0]), 5)
    for row in vals:
        a, info = mc.dtpttr(N, row, uplo="L")
        assert info == 0 and a.flags.f_contiguous
        assert np.array_equal(a[i, j], row)


@pytest.mark.parametrize("threads", [1, 2])
def test_tail_chunk_holds_at_most_two_slices_of_its_draw(const_prof, threads):
    # one chunk at N = 80, whose whole draw is 256 x 3240 doubles (6.6 MB): a
    # slice is freed once the next one is drawn, so two slices are live at
    # most, with a quarter more for the layout, one unpacked matrix and temporaries
    N = 80
    tail_estimate(const_prof, 2.2, [N], mc.MC_CHUNK, threads=threads)
    tracemalloc.start()
    try:
        tail_estimate(const_prof, 2.2, [N], mc.MC_CHUNK, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * 2 * mc._TAIL_SLICE * N * (N + 1) // 2


def test_tail_hits_pinned(const_prof):
    # hit counts on the streams criterion 14 reads (its seeds, x lowered so
    # that every N hits; 4 chunks, the last one partial): a change to the draw,
    # the unpack or the factorization that moves a single hit shows here
    samples = 4 * mc.MC_CHUNK + 5
    gauss = tail_estimate(const_prof, 2.05, [20, 40, 80], samples, "gaussian", seed=20240801)
    rad = tail_estimate(const_prof, 2.05, [40], samples, "rademacher", seed=20240802)
    assert [pt.hits for pt in gauss] == [103, 78, 59]
    assert [pt.hits for pt in rad] == [23]


def _rademacher_tail_exact(N, x, gauge):
    """P(lambda_1 >= x) for the constant profile's Rademacher matrix, by
    enumerating its sign patterns: entries +-sqrt(2/N) on the diagonal and
    +-sqrt(1/N) off it.  With `gauge`, the signs of H[0, 1:] are fixed to +:
    D H D with D = diag(+-1) has the same spectrum and maps the patterns onto
    the gauged ones 2^(N-1) to 1.  Returns p and the distance from x to the
    nearest lambda_1 atom."""
    j, i = np.triu_indices(N)  # entry (i, j), i >= j
    free = ~((j == 0) & (i > 0)) if gauge else np.ones(i.size, dtype=bool)
    k = int(free.sum())
    signs = np.ones((2**k, i.size))
    signs[:, free] = 1 - 2 * ((np.arange(2**k)[:, None] >> np.arange(k)) & 1)
    H = np.zeros((2**k, N, N))
    H[:, i, j] = H[:, j, i] = signs * np.where(i == j, np.sqrt(2.0 / N), np.sqrt(1.0 / N))
    lam1 = np.linalg.eigvalsh(H)[:, -1]
    return float(np.mean(lam1 >= x)), float(np.min(np.abs(lam1 - x)))


@pytest.mark.parametrize("N, x, gauge, samples", [(5, 1.8, False, 2 * 10**5), (6, 1.9, True, 4 * 10**5)])
def test_tail_rademacher_matches_exact_enumeration(const_prof, N, x, gauge, samples):
    # the Rademacher law has no closed form; at small N it is a finite sum
    # (2^15 patterns at N = 5, 2^16 gauged ones at N = 6)
    p, gap = _rademacher_tail_exact(N, x, gauge)
    # x off every atom of lambda_1, where the Cholesky test and eigvalsh could round apart
    assert gap > 1e-9 and 0 < p < 1
    pt = tail_estimate(const_prof, x, [N], samples, "rademacher", seed=0)[0]
    lo, hi = wilson_interval(pt.hits, samples)
    assert lo <= p <= hi, (p, pt.p_hat, lo, hi)


@pytest.mark.parametrize(
    "x, N_list, samples, name",
    [(float("nan"), [20], 300, "x"), (float("inf"), [20], 300, "x"), (2.2, [20], 0, "samples"),
     (2.2, [0], 300, "N"), (2.2, [20, -1], 300, "N")],
)
def test_tail_rejects_bad_input(const_prof, x, N_list, samples, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        tail_estimate(const_prof, x, N_list, samples)


def test_tail_pool_never_exceeds_chunks(const_prof, monkeypatch):
    # a fake executor records the requested pool size and runs the chunks inline
    sizes = []

    class Inline:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, it):
            return map(fn, it)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", Inline)
    pts = tail_estimate(const_prof, 2.2, [10, 12], 3 * mc.MC_CHUNK - 5, seed=2, threads=64)
    assert sizes == [3, 3]
    assert pts == tail_estimate(const_prof, 2.2, [10, 12], 3 * mc.MC_CHUNK - 5, seed=2, threads=1)
    sizes.clear()
    tail_estimate(const_prof, 2.2, [10], mc.MC_CHUNK, seed=2, threads=64)
    assert sizes == [1]  # one chunk runs in a pool of one worker, the sequential path


def test_vector_profile_sums_to_one(block_14):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(60)
    v /= np.linalg.norm(v)
    rho = vector_profile(block_14, v)
    assert rho.sum() == pytest.approx(1.0, abs=1e-10)
    # rows of any length: each is normalised first
    rows = np.stack([v, 3.0 * v, rng.standard_normal(60)])
    rho_rows = vector_profile(block_14, rows)
    assert np.allclose(rho_rows.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(rho_rows[:2], rho, rtol=1e-13, atol=0)


def test_collect_batch_invariants(block_14):
    batch = mc.collect_batch(block_14, 60, 8, "gaussian", seed=2)
    assert np.allclose(batch.rho_v1.sum(axis=1), 1.0, atol=1e-10)
    for i in (0, 7):  # matrix i is drawn from the derived seed [2, i]
        measures = projected_empirical(sample_matrix(block_14, 60, seed=[2, i]), block_14)
        # dsyevr against eigh: equal to rounding, not in every bit
        assert abs(batch.lambda1[i] - measures[0].atoms[-1]) <= 1e-12 * (1.0 + abs(batch.lambda1[i]))
        top = np.array([m.weights[-1] for m in measures]) * 60
        assert np.allclose(batch.rho_v1[i], top, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("weights", [[0.05, 0.95], [0.95, 0.05], [0.45, 0.05, 0.5]])
def test_block_masses_with_an_empty_block(weights):
    # at N = 8 the weight-0.05 block gets no row; it must carry mass 0
    p = len(weights)
    prof = VarianceProfile(weights=np.array(weights), sigma=np.eye(p) + 0.5)
    N = 8
    empty = np.bincount(prof.row_blocks(N), minlength=p) == 0
    assert empty.sum() == 1
    v = np.random.default_rng(0).standard_normal(N)
    rho = vector_profile(prof, v / np.linalg.norm(v))
    assert rho.sum() == pytest.approx(1.0, abs=1e-12) and rho[empty] == 0.0
    masses = projected_empirical(sample_matrix(prof, N, seed=1), prof)
    assert sum(m.total_mass for m in masses) == pytest.approx(1.0, abs=1e-12)
    batch = mc.collect_batch(prof, N, 3, seed=2)
    assert np.allclose(batch.rho_v1.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(batch.rho_v1[:, empty] == 0.0)
    rep = profile_dirichlet_check(prof, N, 1000, seed=3)
    assert rep["mean_emp"].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(rep["mean_emp"][empty] == 0.0)


@pytest.mark.parametrize("weights", [[0.05, 0.95], [0.45, 0.05, 0.5], [0.95, 0.05]],
                         ids=["first", "middle", "last"])
def test_block_sums_match_a_per_block_loop(weights):
    # at N = 8 the weight-0.05 block gets no row: its sums are exact zeros
    p = len(weights)
    prof = VarianceProfile(weights=np.array(weights), sigma=np.eye(p) + 0.5)
    N = 8
    b = prof.row_blocks(N)
    rng = np.random.default_rng(p)
    a = rng.standard_normal((3, 5, N))
    ref = np.stack([a[..., b == k].sum(-1) for k in range(p)], axis=-1)
    got = mc._block_sums(a, prof)
    assert got.shape == (3, 5, p) and np.allclose(got, ref, rtol=0, atol=1e-12)
    a0 = rng.standard_normal((N, 4))
    ref0 = np.stack([a0[b == k].sum(0) for k in range(p)])
    got0 = mc._block_sums(a0, prof, axis=0)
    assert got0.shape == (p, 4) and np.allclose(got0, ref0, rtol=0, atol=1e-12)
    empty = np.bincount(b, minlength=p) == 0
    assert list(np.flatnonzero(empty)) == [weights.index(0.05)]
    assert np.all(got[..., empty] == 0.0) and np.all(got0[empty] == 0.0)


def test_collect_batch_one_dsyevr_per_matrix(block_14, monkeypatch):
    calls = {"dsyevr": [], "eigh": []}
    dsyevr, eigh = mc.dsyevr, np.linalg.eigh
    monkeypatch.setattr(mc, "dsyevr", lambda H, **kw: calls["dsyevr"].append(H.shape) or dsyevr(H, **kw))
    monkeypatch.setattr(np.linalg, "eigh", lambda H: calls["eigh"].append(H.shape) or eigh(H))
    mc.collect_batch(block_14, 30, 4, "gaussian", seed=2)
    assert calls == {"dsyevr": [(30, 30)] * 4, "eigh": []}


@pytest.mark.parametrize("N", [2, 3, 30, 200])
def test_top_pair_matches_eigh(block_14, N):
    # every entry law, and the tilted matrices _top_pairs builds
    Hs = [sample_matrix(block_14, N, dist, seed=[N, k]) for k, dist in enumerate(mc.ENTRY_KINDS)]
    theta, phi = 0.7, np.array([0.3, 0.7])
    b = block_14.row_blocks(N)
    rng, H = next(mc._matrices(block_14, N, "gaussian", [np.random.default_rng([N, 9])]))
    g = rng.standard_normal(N)
    v = np.sqrt(phi)[b] * g / np.sqrt(mc._block_sums(g * g, block_14))[b]
    Hs.append(H + 2.0 * theta * block_14.sigma[np.ix_(b, b)] * np.outer(v, v))
    for H in Hs:
        lam, v = mc._top_pair(H)
        ev, V = np.linalg.eigh(H)
        assert abs(lam - ev[-1]) <= 1e-12 * (1.0 + abs(ev[-1]))
        assert abs(abs(v @ V[:, -1]) - 1.0) <= 1e-12
    for theta in (0.0, 0.7):
        _, rho = mc._top_pairs(block_14, N, "gaussian", [N], 3, theta, phi)
        assert np.allclose(rho.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_edge_concentration_named_profiles(named_profiles):
    # P(|lambda_1 - r| > 0.15) stays small at N = 800
    for prof in named_profiles:
        _, r = support_edge(prof)
        lam = np.array(
            [mc._top_pair(sample_matrix(prof, 800, "gaussian", seed=700 + s))[0] for s in range(25)]
        )
        assert np.mean(np.abs(lam - r) > 0.15) < 0.05
