"""Self-consistent (Dyson) system for block variance profiles.

For a p-block profile the unit-mass per-block Stieltjes values m_k(z),
Im m_k < 0 on the upper half-plane, solve

    1/m_k(z) = z - sum_l sigma_{kl} w_l m_l(z).

The mass-w_k transforms are G_k = w_k m_k and G_total = sum_k G_k is the
Stieltjes transform of the limiting spectral measure.  There is one solver
loop per axis.

Complex axis: every solve walks one ladder of Im z (`_descend`), geometric
from 0.5 down to its eta, each rung started from the one above; `solve_dyson`
walks it for one point, and the size-N system of `solve_dyson_finite` is
`solve_dyson` on N blocks.  On each rung `_solve_block` takes, per row, a full
Newton step on the multiplicative residual 1 - m (z - sigma (w m)) where it is
accepted and otherwise the map m -> 1/(z - sigma (w m)), a strict contraction
in the hyperbolic metric (Helton-Rashidi Far-Speicher, IMRN 2007), so no step
length is searched or measured: every row stops on one test (`_stops`).  A rung
whose m is the answer stops at a multiplicative residual below 1e-10 (1 + |z|)
and a relative step below 1e-13; a rung whose m only starts the next one stops
at start quality, a residual below _SEED_TOL (1 + |z|).  The density grid
solves only its points inside the certified support |x| <= r + EDGE_GAP_TOL
(1 + r), the rest being exact zeros: it walks the ladder to _ETA, every rung a
start, then takes plain Newton steps at Im z = 0, where the boundary value is a
regular solution in the bulk (`spectral_measure`).

Real axis: `_damped_newton` is one damped Newton over a stack of rows, each
with its own positivity-keeping Armijo search and stop, for three systems:
m(x) above the edge (`_solve_real`, from m = 1/x, the first iterate of the
map from m = 0; on this convex system the iterates rise monotonically to
the physical branch), the fold point where sigma diag(w) - diag(1/m^2)
becomes singular, which is the edge r (`support_edge`, certified by weak
duality; Ajanki-Erdos-Kruger, arXiv 1506.05095; Alt-Erdos-Kruger, arXiv
1804.07752), and G^-1 as a bordered system in (m, v) (`_inverse_solve`,
which returns m(v) with v, so that a tilt point costs one solve).  No solve
depends on an earlier one, so a result depends only on its inputs.

The log potential L(x) = integral log(x - y) d mu(y) needs no quadrature.
It is the Dyson free energy at its stationary point (the variational form of
the quadratic vector equation, Ajanki-Erdos-Kruger, arXiv 1506.05095),

    L(x) = sum_k w_k (x m_k - log m_k) - (1/2) (w m)^T sigma (w m) - 1,

evaluated at the one real solve m = m(x) (`_free_energy`): the functional
is stationary in m exactly at the Dyson equation, so its x-derivative is
G(x) and an error in m moves it only at second order; it tends to log x at
infinity.

Memo policy: `support_edge` and the real-axis solve at one x
(`_solve_real_at`) are pure functions of (profile, argument), each a
`functools.lru_cache` of at most _MEMO_SIZE entries over all profiles
(`cache_info()` gives its hits and misses); the memoized m is read-only, so
no caller can change a later result, and a failed solve raises and is not
kept.  The batch solves `_solve_real` and `_inverse_solve` keep nothing: a
caller with many points hands them over as one stack and keeps the rows
(`ratefn._ctx`), and the one-point public functions (`stieltjes_total`,
`log_potential`, `solve_dyson` at real z) read the memo.  Profiles compare
and hash by their weights and sigma, not their label, so equal profiles
loaded separately share entries.  Eviction only costs a recompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .profiles import UsageError, VarianceProfile, _count, _finite

_ETA = 1e-2               # the Im z from which the density's rung at Im z = 0 starts
# residual bound, relative to 1 + |z|, of a rung whose m only starts the next one:
# a tenth of the gap _ETA between the density's last ladder rung and the real
# axis, which its start crosses anyway
_SEED_TOL = _ETA / 10
_REAL_RUNG_STEPS = 20     # plain Newton steps of that rung, per row
_MEMO_SIZE = 1 << 16      # entries per memoized function, over all profiles


class ConvergenceError(RuntimeError):
    """Solver failed to reach the fixed point within its iteration budget."""


# ---------------------------------------------------------------------------
# row kernels and map
# ---------------------------------------------------------------------------


def _rows_matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(A v) along the last axis of v (a dot if A is 1-d): one BLAS call per row of a contiguous
    copy, never one product across rows, so a row is independent of its neighbours and strides."""
    return np.matmul(A, np.ascontiguousarray(v)[..., None])[..., 0]


_ones = lru_cache(maxsize=_MEMO_SIZE)(np.ones)  # shared, never written


def _rowsum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis of a, per row: `_rows_matvec` with a ones vector."""
    return _rows_matvec(_ones(a.shape[-1]), a)


def _quad(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<v, A v> along the last axis of v, per row: the row sum of v times `_rows_matvec`."""
    return _rowsum(v * _rows_matvec(A, v))


def _sigma_w(profile: VarianceProfile, m: np.ndarray) -> np.ndarray:
    """(sigma (w m))_k along the last axis of m (see `_rows_matvec`)."""
    return _rows_matvec(profile.sigma, m * profile.weights)


def fixed_point_map(profile: VarianceProfile, z, m: np.ndarray) -> np.ndarray:
    """One application of m -> 1 / (z - sigma (w m))."""
    return 1.0 / (z - _sigma_w(profile, m))


def _residual(profile: VarianceProfile, z, m: np.ndarray):
    """max_k |1/m_k - (z - (sigma (w m))_k)| over the last axis of m."""
    return np.max(np.abs(1.0 / m - (z - _sigma_w(profile, m))), axis=-1)[()]


def _mult_residual(profile: VarianceProfile, z, m: np.ndarray) -> np.ndarray:
    """1 - m_k (z - (sigma (w m))_k) along the last axis of m: the multiplicative
    residual, well scaled when components of m differ by orders of magnitude (atoms)."""
    return 1.0 - m * (z - _sigma_w(profile, m))


# ---------------------------------------------------------------------------
# complex solver: one batched fixed-point / Newton iteration
# ---------------------------------------------------------------------------

_BLOCK_ENTRIES = 1 << 22  # rows x p^2 per block of the batched complex solve: 64 MB of Jacobians
_MAX_SWEEPS = 4000


def _solve_rows(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise solutions of J x = b in one stacked call; NaN rows where J is exactly
    singular (a zero LU pivot), the others then solved again in one stacked call."""
    try:
        return np.linalg.solve(J, b[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular row fails the whole stack
        x, ok = np.full_like(b, np.nan), np.linalg.slogdet(J)[0] != 0
        x[ok] = np.linalg.solve(J[ok], b[ok][..., None])[..., 0]
        return x


def _newton_step(profile, z, m):
    """(candidate, accepted): one full Newton step on the multiplicative residual
    for each row of m, and the rows whose candidate stays in the lower half-plane
    and lowers max |q| (NaN where the Jacobian is exactly singular)."""
    zc = z[:, None]
    Sm = _sigma_w(profile, m)
    q = 1.0 - m * (zc - Sm)
    J = m[:, :, None] * (profile.sigma * profile.weights)
    diag = np.arange(profile.p)
    J[:, diag, diag] -= zc - Sm
    cand = m + _solve_rows(J, -q)
    ok = np.all(np.imag(cand) < 0, axis=1)
    ok &= np.max(np.abs(_mult_residual(profile, zc, cand)), axis=1) < np.max(np.abs(q), axis=1)
    return cand, ok


def _stops(profile, z, m, nxt, last=True) -> np.ndarray:
    """Rows where the step m -> nxt ends a solve.  On a `last` rung, whose m is
    returned, that is a multiplicative residual (`_mult_residual`) below
    1e-10 (1 + |z|) at nxt and a relative step below 1e-13.  A rung whose m only
    starts the next solve stops at start quality, a residual below
    _SEED_TOL (1 + |z|), without the sweep a step test needs."""
    res = np.max(np.abs(_mult_residual(profile, z[:, None], nxt)), axis=1)
    if not last:
        return res < _SEED_TOL * (1.0 + np.abs(z))
    return (res < 1e-10 * (1.0 + np.abs(z))) & (np.max(np.abs(nxt - m) / np.abs(nxt), axis=1) < 1e-13)


def _solve_block(profile, z, m0, last=True):
    """(m, iterations), one row per z of a block of `_descend`: the fixed point of
    the Dyson map at each z, from its row of m0 or, when m0 is None, from 1/z.
    The first sweep is a fixed-point step; each later sweep tries one full Newton
    step on the multiplicative residual (`_newton_step`) and falls back to the
    contraction map when that step is rejected.  Every row stops on one test
    (`_stops`: the full test on a `last` rung, start quality on any other), whose
    multiplicative residual, unlike `_residual`, has no rounding floor above its
    bound where |m| is large near an atom.  A row still running after _MAX_SWEEPS
    sweeps, or whose z or start is not finite, comes back as NaN, and a row's
    value does not depend on the rows solved with it."""
    if m0 is None:
        m, act = np.repeat((1.0 / z)[:, None], profile.p, axis=1), np.isfinite(z)
    else:
        m, act = m0.copy(), np.isfinite(z) & np.all(np.isfinite(m0), axis=1)
    m[~act] = np.nan
    its = np.zeros(z.size, dtype=int)
    for sweep in range(_MAX_SWEEPS):
        idx = np.flatnonzero(act)
        if idx.size == 0:
            break
        za, ma = z[idx], m[idx]
        nxt, newton = (_newton_step(profile, za, ma) if sweep
                       else (np.empty_like(ma), np.zeros(idx.size, bool)))
        fp = ~newton
        if fp.any():
            nxt[fp] = fixed_point_map(profile, za[fp, None], ma[fp])
        m[idx] = nxt
        its[idx] += 1
        act[idx[_stops(profile, za, ma, nxt, last)]] = False
    m[act] = np.nan
    return m, its


def _descend(profile, xs, eta, last=True):
    """(m, iterations): the rows m(x + i eta), each solved down the ladder 0.5, ...,
    8 eta, eta from m = 1/z, every rung from the one above (`_solve_block`), with
    its sweeps summed over the rungs; a row that fails on any rung is NaN from
    there on.  The rungs above eta only start the next one, so they stop at start
    quality (`_stops`); the rung at eta runs the full test when `last`, that is
    when its m is the answer, and stops at start quality too when the caller only
    starts a further solve from it.  For eta >= 0.25 the ladder is one cold solve
    at eta.  Rows go down the ladder in blocks of at most _BLOCK_ENTRIES / p^2,
    which bounds the stack of p x p Newton Jacobians."""
    rungs, e = [eta], eta
    while e < 0.25:
        e *= 8.0
        rungs.insert(0, min(e, 0.5))
    out = np.empty((xs.size, profile.p), dtype=complex)
    its = np.zeros(xs.size, dtype=int)
    size = max(1, _BLOCK_ENTRIES // profile.p**2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b in range(0, xs.size, size):
            rows, m = slice(b, b + size), None
            for e in rungs:  # strictly decreasing, so only the last equals eta
                m, n = _solve_block(profile, xs[rows] + 1j * e, m, last=last and e == eta)
                its[rows] += n
            out[rows] = m
    return out, its


# ---------------------------------------------------------------------------
# real-axis solver: one row-batched damped Newton for m(x), the fold point and G^-1
# ---------------------------------------------------------------------------

_NEWTON_ITERS = 100   # steps of the real-axis damped Newton, per row
_HALVINGS = 0.5 ** np.arange(50)  # step lengths a row tries, in order


def _damped_newton(F, tol, z, p):
    """(z, converged) per row of z: damped Newton on F = 0, with F(z, i) the residuals
    and Jacobians at rows z of batch rows i and tol(z, i) their bounds on max |F|.
    A row halves its step, at most 50 times, until its first p unknowns stay positive
    and max |F| falls by 1 - 1e-4 t or below its tol, and stops at its tol, when no
    length passes or after _NEWTON_ITERS steps; every product is per row."""
    z, i = np.array(z, dtype=float), np.arange(len(z))  # i: the rows still running
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        Fz, J = F(z, i)
        res = np.abs(Fz).max(axis=1)
        for _ in range(_NEWTON_ITERS):
            i = i[~(res[i] < tol(z[i], i))]
            if not i.size:
                break
            step, k = _solve_rows(J[i], -Fz[i]), np.arange(i.size)  # k: rows still searching
            for t in _HALVINGS:
                ik = i[k]
                cand = z[ik] + t * step[k]
                Fc, Jc = F(cand, ik)
                cres = np.abs(Fc).max(axis=1)
                acc = (cres < res[ik] * (1.0 - 1e-4 * t)) | (cres < tol(cand, ik))
                acc &= cand[:, :p].min(axis=1) > 0
                a = ik[acc]
                z[a], Fz[a], J[a], res[a] = cand[acc], Fc[acc], Jc[acc], cres[acc]
                k = k[~acc]
                if not k.size:
                    break
            else:  # rows that found no step length stop
                i = np.delete(i, k)
    return z, res < tol(z, np.arange(len(z)))


def _real_F(W, m, x):
    """Per row of m the real Dyson residual 1/m - x + W m and its Jacobian."""
    K = np.repeat(W[None], len(m), axis=0)
    K.reshape(len(m), W.size)[:, :: W.shape[0] + 1] -= 1.0 / m**2
    return 1.0 / m - x + _rows_matvec(W, m), K


def _on_branch(profile, m) -> np.ndarray:
    """Rows of m > 0 on the physical branch: the map Jacobian diag(m^2) sigma diag(w),
    similar to D sigma D with D = diag(m sqrt(w)), has spectral radius <= 1 + 1e-6."""
    d = m * np.sqrt(profile.weights)
    lam = np.linalg.eigvalsh(d[:, :, None] * profile.sigma * d[:, None, :])
    return np.abs(lam).max(axis=1) <= 1.0 + 1e-6


def _solve_real(profile, xs) -> np.ndarray:
    """m(x) per x of xs, the rows of a (len(xs), p) stack: Newton on
    1/m - x + sigma (w m) = 0 from m = 1/x for every x > 0 at once; a row is NaN
    unless its residual falls below 1e-14 (1 + x) on `_on_branch`."""
    xs = np.asarray(xs, dtype=float)
    rows = np.flatnonzero(xs > 0)
    x, W, tol = xs[rows], profile.sigma * profile.weights, 1e-14 * (1.0 + xs[rows])
    m, ok = _damped_newton(lambda m, i: _real_F(W, m, x[i, None]), lambda m, i: tol[i],
                           np.repeat(1.0 / x[:, None], profile.p, axis=1), profile.p)
    ok[ok] = _on_branch(profile, m[ok])
    M = np.full((xs.size, profile.p), np.nan)
    M[rows[ok]] = m[ok]
    return M


@lru_cache(maxsize=_MEMO_SIZE)
def _solve_real_at(profile, x: float) -> np.ndarray:
    """m(x), read-only, at one float x (memoized): the row of `_solve_real`;
    ConvergenceError where that row is NaN."""
    m = _solve_real(profile, [x])[0]
    if np.isnan(m).any():
        raise ConvergenceError(f"real-axis solve failed at x={float(x)}; is x above the support edge?")
    m.setflags(write=False)
    return m


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------


@dataclass
class DysonSolution:
    z: complex
    m: np.ndarray
    G_blocks: np.ndarray
    G_total: complex
    iterations: int
    residual: float       # fixed-point residual max_k |1/m_k - (z - (S m)_k)|


def solve_dyson(profile: VarianceProfile, z) -> DysonSolution:
    """Solve the block Dyson system at a spectral parameter z.

    Im z > 0 is a batch of one for the complex solve, descended down the Im z
    ladder (`_descend`), which for Im z >= 0.25 is one solve from 1/z;
    iterations is its sweep count, summed over the rungs.  Real z is accepted
    when it lies above the support edge and is solved by the real-axis Newton
    from m = 1/z; at or below the edge this raises ConvergenceError.  z must
    be finite with Im z >= 0 (UsageError).
    """
    z = complex(z)
    _finite(z.real, "Re z")
    _finite(z.imag, "Im z", "nonnegative")
    if z.imag > 0:
        m, its = _descend(profile, np.array([z.real]), z.imag)
        mc, it = m[0], int(its[0])
        if np.isnan(mc).any():
            raise ConvergenceError(f"Dyson iteration did not converge at z={z}")
    else:
        mc = _solve_real_at(profile, z.real).astype(complex)
        it = 0
    G_blocks = profile.weights * mc
    return DysonSolution(
        z=z,
        m=mc,
        G_blocks=G_blocks,
        G_total=complex(np.sum(G_blocks)),
        iterations=it,
        residual=float(_residual(profile, z, mc)),
    )


def solve_dyson_finite(SigmaN: np.ndarray, z) -> np.ndarray:
    """m at Im z > 0 of the size-N system 1/m_i = z - (1/N) sum_j Sigma_ij m_j.

    This is the block system on N blocks of weight 1/N with sigma = SigmaN,
    which must be a valid profile (UsageError), so it is `solve_dyson` there:
    it walks the same Im z ladder and raises the same ConvergenceError."""
    S = np.asarray(SigmaN, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise UsageError("SigmaN must be square")
    z = complex(z)
    _finite(z.imag, "Im z", "positive")
    n = S.shape[0]
    return solve_dyson(VarianceProfile(np.full(n, 1.0 / n), S), z).m


def _edge_margin(profile: VarianceProfile) -> float:
    """1e-9 (1 + max sigma): how far from the edge r a point counts as at it."""
    return 1e-9 * (1.0 + profile.max_sigma)


def require_above_edge(profile: VarianceProfile, x: float) -> None:
    """UsageError unless x is finite and lies above the support edge r, where
    the real-axis quantities (G, the log potential and the rate's
    ingredients) are defined."""
    _, r = support_edge(profile)
    if not r < x < np.inf:
        raise UsageError(f"x={x!r} must be finite and exceed the support edge r={r!r}")


def stieltjes_total(profile: VarianceProfile, x: float) -> float:
    """G(x) = sum_k w_k m_k(x) for real x above the support edge."""
    require_above_edge(profile, x)
    return float(profile.weights @ _solve_real_at(profile, float(x)))


def stieltjes_inverse(profile: VarianceProfile, two_theta: float) -> float:
    """The v > r_edge with G(v) = two_theta (see `_inverse_solve`)."""
    return float(_inverse_solve(profile, [two_theta])[0][0])


def _inverse_solve(profile: VarianceProfile, two_thetas):
    """(v, m(v)) as stacks, one row per two_theta, for the v > r_edge with
    G(v) = two_theta: damped Newton on the bordered system in (m, v)
    1 - m_k (v - (sigma (w m))_k) = 0, w . m / two_theta - 1 = 0 from one batch of
    `_solve_real` at v0 = max(1/two_theta + a two_theta, r_edge + `_edge_margin`), the
    tail-series root of G(v) ~ 1/v + a/v^3 (a failed start fails its row).  Every
    equation is relative, so one stopping test serves every row, and the Jacobian
    stays regular at the edge.  The first failed row in argument order raises:
    UsageError unless 0 < two_theta < inf, ValueError if no v > r_edge on `_on_branch` is
    found for two_theta >= G(r_edge + margin), else ConvergenceError."""
    tt, w, p = np.asarray(two_thetas, dtype=float), profile.weights, profile.p
    W = profile.sigma * w
    _, r = support_edge(profile)
    lo = r + _edge_margin(profile)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v0 = np.maximum(1.0 / tt + profile.mean_sigma * tt, lo)
    rows = np.flatnonzero((tt > 0) & np.isfinite(v0))
    t = tt[rows]

    def F(z, i):
        m, v = z[:, :p], z[:, p:]
        d = v - _rows_matvec(W, m)
        J = np.zeros((len(z), p + 1, p + 1))
        J[:, :p, :p] = m[:, :, None] * W
        J.reshape(len(z), (p + 1) ** 2)[:, : p * (p + 2) : p + 2] -= d
        J[:, :p, p] = -m
        J[:, p, :p] = w / t[i, None]
        return np.concatenate([1.0 - m * d, _rows_matvec(w, m)[:, None] / t[i, None] - 1.0], axis=1), J

    z0 = np.column_stack([_solve_real(profile, v0[rows]), v0[rows]])
    z, ok = _damped_newton(F, lambda z, i: 1e-14, z0, p)
    ok[ok] = (z[ok, p] > r) & _on_branch(profile, z[ok, :p])
    failed = np.setdiff1d(np.arange(tt.size), rows[ok])
    if failed.size:
        k, g = failed[0], tt[failed[0]]
        _finite(g, "two_theta", "positive")
        if not np.isfinite(v0[k]) or g >= float(w @ _solve_real_at(profile, lo)):
            raise ValueError(f"two_theta={g:.6g} has no inverse above the edge r={r!r}")
        raise ConvergenceError(f"stieltjes_inverse failed at two_theta={g}")
    return z[:, p], z[:, :p]


# ---------------------------------------------------------------------------
# support edge
# ---------------------------------------------------------------------------

EDGE_GAP_TOL = 1e-10   # certified width around support_edge's r, relative to 1 + r


def _perron(profile, m):
    """Unit-sum right and left Perron vectors (v, lam = w v) of diag(m^2) sigma
    diag(w), from the symmetric D sigma D with D = diag(m sqrt(w))."""
    d = m * np.sqrt(profile.weights)
    u = np.abs(np.linalg.eigh(d[:, None] * profile.sigma * d)[1][:, -1])
    v = u * m / np.sqrt(profile.weights)
    return v / v.sum(), u * d / np.sum(u * d)


def _irreducible_parts(profile):
    """(mass, part) per part that sigma > 0 links blocks into, in the order of
    each part's first block; H is block-diagonal over the parts once its rows
    are relabelled, and the Dyson system decouples.  A part keeps the
    profile's m: its weights are rescaled to unit sum and its sigma by its mass.
    Parts with sigma = 0 (an atom at 0) are left out, and an irreducible
    profile is its own one part, of mass 1."""
    link = profile.sigma > 0
    label = np.arange(profile.p)
    while True:  # each block takes the least label it is linked to
        new = np.minimum(label, np.where(link, label, profile.p).min(axis=1))
        if np.array_equal(new, label):
            break
        label = new
    if not label.any():
        return [(1.0, profile)]
    parts = []
    for c in np.unique(label):
        idx = np.flatnonzero(label == c)
        mass, block = float(profile.weights[idx].sum()), profile.sigma[np.ix_(idx, idx)]
        if block.any():
            parts.append((mass, VarianceProfile(profile.weights[idx] / mass, mass * block)))
    return parts


def _fold_system(profile):
    """`_damped_newton`'s (F, tol, z0, p) for the fold system of an irreducible
    profile (see `support_edge`) in rows z = (m, v, x), from one start row."""
    W, p = profile.sigma * profile.weights, profile.p
    x = 2.0 * np.sqrt(W.sum(axis=1).max()) * 1.01
    m = _solve_real_at(profile, x)

    def F(z, _):
        m, v, x = z[:, :p], z[:, p:-1], z[:, -1:]
        R, K = _real_F(W, m, x)
        J = np.zeros((len(z), 2 * p + 1, 2 * p + 1))
        J[:, :p, :p] = J[:, p:-1, p:-1] = K
        J[:, p + np.arange(p), np.arange(p)] = 2.0 * v / m**3
        J[:, :p, -1], J[:, -1, p:-1] = -1.0, 1.0
        return np.concatenate([R, _rows_matvec(K, v), v.sum(axis=1, keepdims=True) - 1.0], axis=1), J

    z0 = np.concatenate([m, _perron(profile, m)[0], [x]])[None]
    return F, lambda z, _: 1e-14 * (1.0 + z[:, -1]), z0, p


@lru_cache(maxsize=_MEMO_SIZE)
def support_edge(profile: VarianceProfile) -> tuple[float, float]:
    """Support edges (l, r) of the limiting measure; l = -r by symmetry.

    With S = sigma diag(w), r is the fold point of the real Dyson system,
    where the stability operator S - diag(1/m^2) becomes singular.  On each
    irreducible part of the profile, damped Newton solves the fold system

        1/m - x + S m = 0,   (S - diag(1/m^2)) v = 0,   sum(v) = 1

    in (m, v, x), whose Jacobian is regular at a square-root edge.  It starts
    1% above the bound x = 2 sqrt(max_k (S 1)_k), from the real solve m(x)
    and the Perron vector v of diag(m^2) S there; r is the largest fold point.

    Certificate, by weak duality for r = min_{m>0} max_k (1/m_k + (S m)_k): a
    positive m with max_k (1/m_k + (S m)_k) <= x is a supersolution of the
    increasing map m -> 1/(x - S m), so its iterates from 0 rise below m to a
    least positive fixed point at x, which exists only for x >= r; above r
    the physical m(x) attains the bound.  So every m > 0 bounds r above, and
    every lam on the simplex gives r >= 2 sum_k sqrt(lam_k w_k (sigma lam)_k)
    (average the max over lam, minimize each term over m_k).  The bounds are
    taken at the converged m and at the left Perron vector of diag(m^2)
    diag(w) sigma there; ConvergenceError is raised unless they and r lie
    within EDGE_GAP_TOL (1 + r).
    """
    r, upper, lower = -np.inf, -np.inf, -np.inf
    for _, part in _irreducible_parts(profile):
        z, _ = _damped_newton(*_fold_system(part))
        x, m = float(z[0, -1]), z[0, : part.p]
        w, sigma = part.weights, part.sigma
        lam = _perron(part, m)[1]
        r = max(r, x)
        upper = max(upper, float(np.max(1.0 / m + sigma @ (w * m))))
        lower = max(lower, float(2.0 * np.sum(np.sqrt(lam * w * (sigma @ lam)))))
    if not max(upper, r) - min(lower, r) <= EDGE_GAP_TOL * (1.0 + r):
        raise ConvergenceError(f"support_edge not certified: r={r!r}, bounds [{lower!r}, {upper!r}]")
    return (-r, r)


# ---------------------------------------------------------------------------
# spectral measure
# ---------------------------------------------------------------------------


@dataclass
class SpectralMeasure:
    x_grid: np.ndarray
    density: np.ndarray
    block_densities: np.ndarray  # shape (p, len(x_grid))
    l_edge: float
    r_edge: float
    total_mass: float            # trapezoid integral of density over x_grid
    total_mass_error: float      # |total_mass - 1|
    flags: np.ndarray


def spectral_measure(profile: VarianceProfile, x_min: float, x_max: float, points: int) -> SpectralMeasure:
    """The limiting density -Im G(x)/pi on a grid, at Im z = 0 itself.

    `support_edge` certifies that mu lies in |x| <= r + EDGE_GAP_TOL (1 + r), so
    grid points outside that bracket get density 0 and no flag without a solve.
    The points inside walk the Im z ladder (`_descend`) in one batch down to
    _ETA, every rung only a start and so stopped at start quality, then take at
    most _REAL_RUNG_STEPS plain Newton steps (`_newton_step`) at Im z = 0 to the
    boundary value m(x), a regular solution in the bulk, each row until the full
    `_stops` test; block densities use the mass-w_k transforms.  A row that
    does not stop or ends with some Im m_k > 1e-12 |m_k| is flagged with density
    0: an atom, whose mass is missed, or a point inside the bracket on an edge
    or within about 1e-6 of one, where the Newton steps slow down (the farthest
    seen: 1.2e-6 from wishart(2)'s inner edge, on 401-point windows).
    """
    _finite([x_min, x_max], "x_min and x_max")
    if not x_min < x_max:
        raise UsageError("x_min must be below x_max")
    points = _count(points, "points", 2)
    grid = np.linspace(x_min, x_max, points)
    l_edge, r_edge = support_edge(profile)
    inside = np.flatnonzero(np.abs(grid) <= r_edge + EDGE_GAP_TOL * (1.0 + r_edge))
    x = grid[inside]
    m, _ = _descend(profile, x, _ETA, last=False)
    failed = np.isnan(m).any(axis=1)
    if failed.any():
        raise ConvergenceError(f"Dyson iteration did not converge at x={x[failed][0]}")
    act = np.ones(x.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_REAL_RUNG_STEPS):
            idx = np.flatnonzero(act)
            if idx.size == 0:
                break
            nxt = _newton_step(profile, x[idx], m[idx])[0]
            act[idx[_stops(profile, x[idx], m[idx], nxt)]] = False
            m[idx] = nxt
    flags = np.zeros(points, dtype=bool)
    flags[inside] = act | np.any(np.imag(m) > 1e-12 * np.abs(m), axis=1)
    blocks = np.zeros((profile.p, points))
    blocks[:, inside] = np.maximum(-np.imag(profile.weights * m).T / np.pi, 0.0)
    blocks[:, flags] = 0.0
    density = blocks.sum(axis=0)
    mass = float(np.trapezoid(density, grid))
    return SpectralMeasure(
        x_grid=grid,
        density=density,
        block_densities=blocks,
        l_edge=l_edge,
        r_edge=r_edge,
        total_mass=mass,
        total_mass_error=abs(mass - 1.0),
        flags=flags,
    )


# ---------------------------------------------------------------------------
# log potential
# ---------------------------------------------------------------------------


def log_potential(profile: VarianceProfile, x: float) -> float:
    """integral log(x - y) d mu(y) for x above the support edge, in closed
    form from the one real-axis solve m = m(x) (`_free_energy`)."""
    require_above_edge(profile, x)
    return float(_free_energy(profile, x, _solve_real_at(profile, float(x))))


def _free_energy(profile: VarianceProfile, x, m: np.ndarray):
    """The Dyson free energy at x and m, per row of m (one x a row),

        L(x) = sum_k w_k (x m_k - log m_k) - (1/2) (w m)^T sigma (w m) - 1,

    the log potential when m = m(x).  It is stationary in m exactly where
    1/m = x - sigma (w m), so by the envelope theorem dL/dx = sum_k w_k m_k
    = G(x), and L(x) = log x + O(x^-2) at infinity, as for the log
    potential; an error in m moves L only at second order.  Each sum over a
    row is one BLAS call (`_rowsum`, `_rows_matvec`, `_quad`), so a row's value
    is the same alone or in any stack."""
    g = profile.weights * m
    log_m = _rows_matvec(profile.weights, np.log(m))
    return (x * _rowsum(g) - 1.0) - log_m - 0.5 * _quad(profile.sigma, g)
