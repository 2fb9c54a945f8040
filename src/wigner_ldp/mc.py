"""Seeded Monte Carlo for profile-sampled Wigner matrices.

Sampling convention: row i sits at t_i = (i - 1/2)/N, its block is the
partition interval containing t_i.  Off-diagonal entries have variance
sigma_{kl}/N, diagonal entries 2 sigma_{kk}/N.  Estimators draw in fixed
chunks whose generators derive from (master seed, chunk index), so results
are bit-identical for any thread count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.optimize import brentq

from .profiles import VarianceProfile
from . import ratefn
from .ratefn import eval_phi, find_tilt_theta

ENTRY_KINDS = ("gaussian", "rademacher", "uniform")
_SQRT3 = math.sqrt(3.0)
MC_CHUNK = 256
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
    raise ValueError(f"unknown entry distribution {dist!r}; pick one of {ENTRY_KINDS}")


def entry_log_mgf(dist: str, t):
    """log E exp(t X) for the unit-variance entry laws (all <= t^2/2)."""
    t = np.asarray(t, dtype=float)
    if dist == "gaussian":
        return t * t / 2.0
    if dist == "rademacher":
        return np.logaddexp(t, -t) - math.log(2.0)
    if dist == "uniform":
        s = _SQRT3 * t
        out = np.where(np.abs(s) > 1e-8, np.log(np.sinh(np.abs(s) + (np.abs(s) < 1e-8)) / np.where(np.abs(s) > 1e-8, np.abs(s), 1.0)), s * s / 6.0)
        return out
    raise ValueError(f"unknown entry distribution {dist!r}")


def _scale_matrices(profile: VarianceProfile, N: int):
    b = profile.row_blocks(N)
    S = profile.sigma[np.ix_(b, b)]
    off = np.sqrt(S / N)
    diag = np.sqrt(2.0 * np.diag(S) / N)
    return b, off, diag


def _assemble(A, d, off, diag):
    # A: (..., N, N) raw draws, d: (..., N) raw diagonal draws
    U = np.triu(A, 1) * off
    H = U + np.swapaxes(U, -1, -2)
    idx = np.arange(A.shape[-1])
    H[..., idx, idx] = d * diag
    return H


def sample_matrix(profile: VarianceProfile, N: int, dist: str = "gaussian", seed=0):
    """One symmetric N x N draw with the profile's entry variances.

    seed is anything numpy's default_rng accepts (an int or a derivation list).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    rng = np.random.default_rng(seed)
    _, off, diag = _scale_matrices(profile, N)
    A = _draw(rng, (N, N), dist)
    d = _draw(rng, (N,), dist)
    return _assemble(A, d, off, diag)


def _sample_chunk(profile, N, dist, seed, chunk_index, count, off, diag):
    rng = np.random.default_rng([seed, chunk_index])
    A = _draw(rng, (count, N, N), dist)
    d = _draw(rng, (count, N), dist)
    return _assemble(A, d, off, diag)


def _check_symmetric(H: np.ndarray) -> None:
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix must be finite")
    if not np.allclose(H, H.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")


def eig_top(matrix: np.ndarray):
    """(lambda_1, v_1, spectrum); v_1 unit with first nonzero entry positive."""
    H = np.asarray(matrix, dtype=float)
    _check_symmetric(H)
    ev, V = np.linalg.eigh(H)
    v1 = V[:, -1]
    nz = np.flatnonzero(np.abs(v1) > 1e-12)
    if nz.size and v1[nz[0]] < 0:
        v1 = -v1
    return float(ev[-1]), v1, ev


def _block_sums(a: np.ndarray, starts: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sums of a over the partition blocks that begin at `starts` along axis.

    A block with no rows at this size (a repeated start, or one at the end)
    sums to 0; np.add.reduceat alone returns the next block's first element
    there, or fails past the end.
    """
    full = np.diff(starts, append=a.shape[axis]) > 0
    sums = np.add.reduceat(a, starts[full], axis=axis)
    shape = list(a.shape)
    shape[axis] = starts.size
    out = np.zeros(shape)
    np.moveaxis(out, axis, -1)[..., full] = np.moveaxis(sums, axis, -1)
    return out


def vector_profile(profile: VarianceProfile, v: np.ndarray) -> np.ndarray:
    """rho(v): squared mass of v on each partition block."""
    b = profile.row_blocks(v.shape[-1])
    starts = np.searchsorted(b, np.arange(profile.p), side="left")
    return _block_sums(np.asarray(v) ** 2, starts)


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


@dataclass(frozen=True)
class DensityMeasure:
    grid: np.ndarray
    density: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))


def _cdf_at(measure, xs):
    if isinstance(measure, DiscreteMeasure):
        order = np.argsort(measure.atoms)
        atoms = measure.atoms[order]
        cw = np.cumsum(measure.weights[order])
        idx = np.searchsorted(atoms, xs, side="right")
        return np.where(idx > 0, cw[np.minimum(idx - 1, cw.size - 1)], 0.0)
    g, f = measure.grid, measure.density
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(g))])
    return np.interp(xs, g, cum, left=0.0, right=cum[-1])


def wasserstein1(m1, m2) -> float:
    """W1 between two measures of equal mass: integral of the CDF gap.

    Accepts DiscreteMeasure or DensityMeasure on either side.
    """
    if abs(m1.total_mass - m2.total_mass) > 1e-6:
        raise ValueError(
            f"measure masses differ: {m1.total_mass:.8g} vs {m2.total_mass:.8g}"
        )
    breaks = []
    for m in (m1, m2):
        breaks.append(m.atoms if isinstance(m, DiscreteMeasure) else m.grid)
    b = np.unique(np.concatenate(breaks))
    # midpoint rule per cell: exact for step CDFs, second order for smooth
    fine = np.linspace(0.0, 1.0, 9)[1:-1]
    xs = np.concatenate([b[:-1, None] + np.diff(b)[:, None] * fine[None, :]]).ravel()
    widths = np.repeat(np.diff(b) / fine.size, fine.size)
    gap = np.abs(_cdf_at(m1, xs) - _cdf_at(m2, xs))
    return float(np.sum(gap * widths))


def projected_empirical(matrix: np.ndarray, profile: VarianceProfile):
    """Per-block spectral measures: atom lambda_i with weight <v_i, Pi_k v_i>/N."""
    H = np.asarray(matrix, dtype=float)
    _check_symmetric(H)
    N = H.shape[0]
    ev, V = np.linalg.eigh(H)
    b = profile.row_blocks(N)
    starts = np.searchsorted(b, np.arange(profile.p), side="left")
    masses = _block_sums(V**2, starts, axis=0) / N  # (p, N)
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


def _jackknife_logmean(vals: np.ndarray, n_total: int, groups: int = 10):
    """(1/N-free) log-mean with jackknife stderr over index groups."""
    m = vals.max()
    full = m + np.log(np.sum(np.exp(vals - m))) - np.log(n_total)
    parts = []
    for g in range(groups):
        mask = (np.arange(vals.size) // max(int(math.ceil(vals.size / groups)), 1)) != g
        sub = vals[mask]
        if sub.size == 0:
            continue
        n_sub = n_total - (vals.size - sub.size)
        ms = sub.max()
        parts.append(ms + np.log(np.sum(np.exp(sub - ms))) - np.log(n_sub))
    parts = np.asarray(parts)
    g = parts.size
    if g < 2:
        return full, np.nan
    se = math.sqrt((g - 1) / g * np.sum((parts - parts.mean()) ** 2))
    return full, se


def _sphere_draws(seed, samples: int, N: int):
    """Standard normal rows for the sphere estimators, as (offset, g) chunks.

    Chunk i holds at most MC_CHUNK * 16 rows of length N drawn from
    default_rng([seed, i]), so the stream is fixed by (seed, samples, N).
    """
    size = MC_CHUNK * 16
    for chunk_index, done in enumerate(range(0, samples, size)):
        rng = np.random.default_rng([seed, chunk_index])
        yield done, rng.standard_normal((min(size, samples - done), N))


def _block_masses(g: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """rho(g/|g|) for each row of g: squared mass per partition block."""
    u2 = g * g
    u2 /= u2.sum(axis=1, keepdims=True)
    return _block_sums(u2, starts)


def _saddle_gap(gaps: np.ndarray, theta: float) -> float:
    """d > 0 with (1/N) sum 1/(d + gaps_i) = 2 theta, for gaps >= 0 with min 0.

    The left side falls from +inf to 0 on d > 0, so the root is unique.  As
    one gap is 0 and none is negative, the root lies in
    [1/(2 theta N), 1/(2 theta)]; the bracket is widened by 2 on each side so
    that rounding cannot spoil the sign change.
    """
    lo, hi = 1.0 / (4.0 * theta * gaps.size), 1.0 / theta
    return brentq(lambda d: np.mean(1.0 / (d + gaps)) - 2.0 * theta, lo, hi)


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
    (M, theta) -> (-M, -theta), so z then lies below lambda_min.  When the
    proposal is uniform -- theta = 0 (no root, z = inf) or M a multiple of
    the identity (all weights equal) -- the weights reduce to the plain
    average of exp(theta N q) over normalized Gaussian vectors.

    Draws come in chunks seeded by (seed, chunk index); the mean is taken in
    log space with a 10-group jackknife stderr.  extra holds the effective
    sample size (sum w)^2 / sum w^2 as "ess" and z as "z"; an ESS below
    ESS_FLOOR raises a RuntimeWarning, as the stderr is then unreliable.
    """
    if samples < MIN_SPHERE_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SPHERE_SAMPLES}")
    M = np.asarray(matrix, dtype=float)
    _check_symmetric(M)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    N = M.shape[0]
    sign = -1.0 if theta < 0 else 1.0
    lam = sign * np.linalg.eigvalsh(M)
    t = abs(theta)
    lam_max = float(lam.max())
    gaps = lam_max - lam
    uniform = t == 0.0 or not np.any(gaps > 0.0)
    if uniform:
        shift, z, scale = 0.0, sign * math.inf, np.ones(N)
    else:
        d = _saddle_gap(gaps, t)
        shift = t * N * lam_max - 0.5 * float(np.sum(np.log(d + gaps)))
        z = sign * (lam_max + d)
        scale = 1.0 / np.sqrt(d + gaps)
    vals = np.empty(samples)
    for done, g in _sphere_draws(seed, samples, N):
        g2 = (g * scale) ** 2
        s = (g2 @ gaps) / np.sum(g2, axis=1)  # lambda_max - q
        rows = slice(done, done + g.shape[0])
        if uniform:
            vals[rows] = t * N * (lam_max - s)
        else:
            vals[rows] = 0.5 * N * np.log(d + s) - t * N * s
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
        extra={"ess": ess, "z": z},
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
    exp(N theta^2 <rho(u), S rho(u)>) exactly, so only the sphere is sampled.
    The window keeps rho(u) within sup-distance delta of phi_target; an empty
    window raises InconclusiveError.
    """
    phi = np.asarray(getattr(phi_target, "values", phi_target), dtype=float)
    b = profile.row_blocks(N)
    starts = np.searchsorted(b, np.arange(profile.p), side="left")
    sig = profile.sigma
    vals = np.empty(samples)
    inside = np.zeros(samples, dtype=bool)
    for done, g in _sphere_draws(seed, samples, N):
        rho = _block_masses(g, starts)
        rows = slice(done, done + g.shape[0])
        vals[rows] = N * theta**2 * np.einsum("ik,kl,il->i", rho, sig, rho)
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
    with parameters (#I_k / 2); returns the largest absolute deviations."""
    b = profile.row_blocks(N)
    counts = np.bincount(b, minlength=profile.p).astype(float)
    starts = np.searchsorted(b, np.arange(profile.p), side="left")
    a = counts / 2.0
    a0 = a.sum()
    mean_exact = a / a0
    cov_exact = (np.diag(a * a0) - np.outer(a, a)) / (a0 * a0 * (a0 + 1.0))
    rho_sum = np.zeros(profile.p)
    rho_sq = np.zeros((profile.p, profile.p))
    for _, g in _sphere_draws(seed, samples, N):
        rho = _block_masses(g, starts)
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
    profile: VarianceProfile,
    x: float,
    psi,
    N: int,
    samples: int,
    seed: int = 0,
    dist: str = "gaussian",
) -> dict:
    """Sample H + 2 theta* E with E = Sigma o v v^T and v profiled by
    phi(theta*); reports how the top eigenvalue tracks the target x."""
    theta = find_tilt_theta(profile, x, psi)
    phi = eval_phi(profile, theta, x, psi).values
    b, off, diag = _scale_matrices(profile, N)
    S_full = profile.sigma[np.ix_(b, b)]
    starts = np.searchsorted(b, np.arange(profile.p), side="left")
    seg_len = np.diff(np.concatenate([starts, [N]]))
    lam1 = np.empty(samples)
    prof_gap = np.empty(samples)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        A = _draw(rng, (N, N), dist)
        d = _draw(rng, (N,), dist)
        H = _assemble(A, d, off, diag)
        g = rng.standard_normal(N)
        v = np.empty(N)
        for k in range(profile.p):
            sl = slice(starts[k], starts[k] + seg_len[k])
            nrm = np.linalg.norm(g[sl])
            v[sl] = math.sqrt(phi[k]) * g[sl] / nrm if nrm > 0 else 0.0
        H += 2.0 * theta * S_full * np.outer(v, v)
        l1, v1, _ = eig_top(H)
        lam1[i] = l1
        prof_gap[i] = np.max(np.abs(vector_profile(profile, v1) - phi))
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
    projected: list              # per-block DiscreteMeasure aggregated over the batch

    def to_csv(self) -> str:
        p = self.rho_v1.shape[1]
        lines = ["seed_index,lambda1," + ",".join(f"rho_{k+1}" for k in range(p))]
        for i in range(self.lambda1.size):
            cells = [str(i), repr(float(self.lambda1[i]))]
            cells += [repr(float(v)) for v in self.rho_v1[i]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def collect_batch(
    profile: VarianceProfile, N: int, samples: int, dist: str = "gaussian", seed: int = 0
) -> SampleBatch:
    """Sample matrices one per derived seed and collect top-eigenvalue data."""
    lam1 = np.empty(samples)
    rho = np.empty((samples, profile.p))
    b, off, diag = _scale_matrices(profile, N)
    starts = np.searchsorted(b, np.arange(profile.p), side="left")
    agg_atoms = []
    agg_weights = []
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        H = _assemble(_draw(rng, (N, N), dist), _draw(rng, (N,), dist), off, diag)
        ev, V = np.linalg.eigh(H)
        lam1[i] = ev[-1]
        rho[i] = _block_sums(V[:, -1] ** 2, starts)
        agg_atoms.append(ev)
        agg_weights.append(_block_sums(V**2, starts, axis=0) / N)
    atoms = np.concatenate(agg_atoms)
    weights = np.concatenate(agg_weights, axis=1) / samples
    projected = [DiscreteMeasure(atoms, weights[k]) for k in range(profile.p)]
    return SampleBatch(
        N=N, profile_label=profile.label, seed=seed, lambda1=lam1, rho_v1=rho,
        projected=projected,
    )


def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    ph = hits / n
    den = 1.0 + z * z / n
    center = (ph + z * z / (2 * n)) / den
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / den
    return max(center - half, 0.0), min(center + half, 1.0)


def _count_exceedances(H_batch: np.ndarray, x: float) -> int:
    """Number of matrices with lambda_1 >= x, by testing x I - H for positive
    definiteness (Cholesky succeeds iff lambda_1 < x)."""
    n = H_batch.shape[-1]
    M = x * np.eye(n)
    hits = 0
    for H in H_batch:
        _, info = dpotrf(M - H, lower=1, overwrite_a=1)
        if info != 0:
            hits += 1
    return hits


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

    rate = -(1/N) log p_hat with a Wilson interval mapped through the same
    transform; zero hits produce a one-sided point (rate = inf, finite
    rate_lo from the interval's upper endpoint).
    """
    out = []
    for N in N_list:
        _, off, diag = _scale_matrices(profile, N)
        n_chunks = math.ceil(samples / MC_CHUNK)

        def chunk_hits(ci, N=N, off=off, diag=diag):
            cnt = min(MC_CHUNK, samples - ci * MC_CHUNK)
            H = _sample_chunk(profile, N, dist, seed, ci, cnt, off, diag)
            return _count_exceedances(H, x)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                hits = sum(ex.map(chunk_hits, range(n_chunks)))
        else:
            hits = sum(chunk_hits(ci) for ci in range(n_chunks))
        p_lo, p_hi = wilson_interval(hits, samples)
        ph = hits / samples
        rate = -math.log(ph) / N if hits > 0 else math.inf
        rate_lo = -math.log(p_hi) / N if p_hi > 0 else math.inf
        rate_hi = -math.log(p_lo) / N if p_lo > 0 else math.inf
        out.append(
            TailPoint(
                N=N, samples=samples, hits=hits, p_hat=ph,
                rate=rate, rate_lo=rate_lo, rate_hi=rate_hi, one_sided=hits == 0,
            )
        )
    return out


def quantile_spectrum_matrix(profile: VarianceProfile, N: int, top: float) -> np.ndarray:
    """Deterministic diagonal matrix: N-1 quantiles of the limiting measure
    plus a detached top eigenvalue."""
    from .dyson import spectral_measure, support_edge

    l, r = support_edge(profile)
    sm = spectral_measure(profile, l - 0.05, r + 0.05, 1501)
    f = np.where(sm.flags, 0.0, sm.density)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(sm.x_grid))])
    cum /= cum[-1]
    qs = (np.arange(1, N) - 0.5) / (N - 1)
    lam = np.interp(qs, cum, sm.x_grid)
    return np.diag(np.concatenate([lam, [top]]))
