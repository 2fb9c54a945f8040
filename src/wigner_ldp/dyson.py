"""Self-consistent (Dyson) system for block variance profiles.

For a p-block profile the unit-mass per-block Stieltjes values m_k(z),
Im m_k < 0 on the upper half-plane, solve

    1/m_k(z) = z - sum_l sigma_{kl} w_l m_l(z).

The mass-w_k transforms are G_k = w_k m_k and G_total = sum_k G_k is the
Stieltjes transform of the limiting spectral measure.  The plain fixed-point
map contracts in the hyperbolic metric for Im z > 0, but slowly close to the
real axis.  Every complex value comes from one batched solve,
`_solve_complex_many`, over an array of spectral parameters: per row, damped
Newton steps on the multiplicative residual with the contraction map as the
fallback.  Near the real axis a row is started by descending a geometric
ladder of Im z from 0.5 (`_descend`); the density grid and the edge
predicate each solve all their points in one batch.

On the real axis above the edge every value of m(x) comes from one
vectorized damped Newton, `_newton_real`, with one deterministic seed: the
iterates of m <- 1/(x - sigma (w m)) from m = 0, stopped at a relative step
of 1e-4.  That map is increasing on the positive cone, so the iterates rise
to its smallest positive fixed point, which is the physical branch.  No
solve depends on an earlier one, so a result depends only on its inputs;
the per-profile memos hold values of pure functions of their keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .profiles import VarianceProfile

DEFAULT_ETA_SCHEDULE = (1e-2, 5e-3, 2.5e-3)
STEP_TOL = 1e-13          # hyperbolic distance between successive iterates
DENSITY_FLOOR = 1e-6      # edge predicate threshold
_PREDICATE_ETAS = (1e-5, 1e-7)  # finer pair: keeps the edge bias below 1e-4


class ConvergenceError(RuntimeError):
    """Solver failed to reach the fixed point within its iteration budget."""


# ---------------------------------------------------------------------------
# metric and map
# ---------------------------------------------------------------------------


def hyperbolic_D(u: np.ndarray, v: np.ndarray):
    """max_k |u_k - v_k|^2 / (Im u_k Im v_k) over the last axis, for lower
    half-plane vectors (one value per row of a stack)."""
    num = np.abs(u - v) ** 2
    den = np.imag(u) * np.imag(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.max(num / den, axis=-1)
    return np.where(np.any(den <= 0, axis=-1), np.inf, D)[()]


def hyperbolic_distance(u: np.ndarray, v: np.ndarray):
    """d(u, v) = arcosh(1 + D(u, v)/2), maximized over components.

    arcosh(1 + t) loses all precision for t below machine epsilon; the
    series value sqrt(D) (relative error D/24) takes over there so that
    step tolerances near 1e-13 remain meaningful.
    """
    D = hyperbolic_D(u, v)
    return np.where(D < 1e-8, np.sqrt(D), np.arccosh(1.0 + D / 2.0))[()]


def _sigma_w(profile: VarianceProfile, m: np.ndarray) -> np.ndarray:
    """(sigma (w m))_k along the last axis of m, summed over l in a fixed order
    so that a row's value does not depend on the rows stacked beside it (a
    BLAS product may change its summation order with the stack height)."""
    mw = m * profile.weights
    out = mw[..., :1] * profile.sigma[:, 0]
    for l in range(1, profile.p):
        out = out + mw[..., l : l + 1] * profile.sigma[:, l]
    return out


def fixed_point_map(profile: VarianceProfile, z, m: np.ndarray) -> np.ndarray:
    """One application of m -> 1 / (z - sigma (w m))."""
    return 1.0 / (z - _sigma_w(profile, m))


def _residual(profile: VarianceProfile, z, m: np.ndarray):
    """max_k |1/m_k - (z - (sigma (w m))_k)| over the last axis of m."""
    return np.max(np.abs(1.0 / m - (z - _sigma_w(profile, m))), axis=-1)[()]


# ---------------------------------------------------------------------------
# complex solver: one batched fixed-point / Newton iteration
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 512   # spectral parameters per block of the batched complex solve
_MAX_SWEEPS = 4000


def _solve_rows(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise solutions of J x = b; NaN rows where J is exactly singular."""
    try:
        return np.linalg.solve(J, b[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular row fails the whole stack
        if len(J) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_solve_rows(J[i : i + 1], b[i : i + 1]) for i in range(len(J))])


def _newton_step(profile, z, m, out) -> np.ndarray:
    """Damped Newton on the multiplicative residual for each row of m.

    A row takes the longest of the step lengths 1, 1/2, ..., 2^-39 whose
    candidate stays in the lower half-plane and lowers max |q|.  Accepted
    candidates go to the rows of out; returns the mask of rows that got one.
    """
    # multiplicative form 1 - m (z - S m): well scaled when components of m
    # differ by orders of magnitude (atoms)
    zc = z[:, None]
    Sm = _sigma_w(profile, m)
    q = 1.0 - m * (zc - Sm)
    qres = np.max(np.abs(q), axis=1)
    J = m[:, :, None] * (profile.sigma * profile.weights)
    diag = np.arange(profile.p)
    J[:, diag, diag] -= zc - Sm
    delta = _solve_rows(J, -q)

    def accept(cand, zc, qres):
        q = 1.0 - cand * (zc - _sigma_w(profile, cand))
        return np.all(np.imag(cand) < 0, axis=-1) & (np.max(np.abs(q), axis=-1) < qres)

    cand = m + delta
    ok = accept(cand, zc, qres)
    out[ok] = cand[ok]
    rows = np.flatnonzero(~ok)
    if rows.size:
        # the shorter steps of every rejected row, all at once
        cand = m[rows, None] + (0.5 ** np.arange(1, 40))[:, None] * delta[rows, None]
        ok_t = accept(cand, zc[rows, None], qres[rows, None])
        first = np.argmax(ok_t, axis=1)
        got = ok_t[np.arange(rows.size), first]
        out[rows[got]] = cand[got, first[got]]
        ok[rows[got]] = True
    return ok


def _solve_block(profile, z, m0):
    """One block of rows of _solve_complex_many."""
    m = np.repeat((1.0 / z)[:, None], profile.p, axis=1)
    act = np.isfinite(z)
    if m0 is not None:
        keep = np.all(np.imag(m0) < 0, axis=1)
        m[keep] = m0[keep]
        act &= np.all(np.isfinite(m0), axis=1)
    m[~act] = np.nan
    its = np.zeros(z.size, dtype=int)
    res_tol = 1e-10 * (1.0 + np.abs(z))
    for sweep in range(_MAX_SWEEPS):
        idx = np.flatnonzero(act)
        if idx.size == 0:
            break
        za, ma = z[idx], m[idx]
        nxt = np.empty_like(ma)
        newton = _newton_step(profile, za, ma, nxt) if sweep else np.zeros(idx.size, bool)
        fp = ~newton
        if fp.any():
            nxt[fp] = fixed_point_map(profile, za[fp, None], ma[fp])
        step = hyperbolic_distance(ma, nxt)
        small = np.max(np.abs(nxt - ma) / np.abs(nxt), axis=1) < 1e-13
        converged = _residual(profile, za[:, None], nxt) < res_tol[idx]
        # the hyperbolic step is not resolvable below ~1e-9 when Im m ~ eta
        # is tiny; relative stagnation covers that case
        done = np.where(
            newton,
            ((step < STEP_TOL) | small) & converged,
            (step < STEP_TOL) | (small & converged),
        )
        m[idx] = nxt
        its[idx] += 1
        act[idx[done]] = False
    m[act] = np.nan
    return m, its


def _solve_complex_many(profile, zs, m0=None):
    """Fixed points of the Dyson map at each z of zs (Im z > 0).

    Returns (m, iterations), one row per z.  Each row starts from its row of
    m0, or from 1/z when that row is missing or not in the lower half-plane.
    The first sweep is a fixed-point step; each later sweep tries a damped
    Newton step on the multiplicative residual and falls back to the
    contraction map when no step length is accepted.  A row stops on a
    hyperbolic step below STEP_TOL, or on a relative step below 1e-13 with
    residual below 1e-10 (1 + |z|).  A row still running after _MAX_SWEEPS
    sweeps, or whose z or m0 row is not finite, comes back as NaN; callers
    decide what that means.  Rows are solved in blocks of _BLOCK_ROWS, and a
    row's value does not depend on the rows solved with it.
    """
    zs = np.asarray(zs, dtype=complex)
    if np.any(np.imag(zs) <= 0):
        raise ValueError("_solve_complex_many needs Im z > 0")
    if m0 is not None:
        m0 = np.asarray(m0, dtype=complex)
    m = np.empty((zs.size, profile.p), dtype=complex)
    its = np.empty(zs.size, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b in range(0, zs.size, _BLOCK_ROWS):
            rows = slice(b, b + _BLOCK_ROWS)
            m[rows], its[rows] = _solve_block(profile, zs[rows], None if m0 is None else m0[rows])
    return m, its


def _descend(profile, xs, eta):
    """Rows m(x + i eta), each solved down the geometric ladder 0.5, ..., 8 eta,
    eta from m = 1/z; a row that fails on any rung is NaN."""
    etas = [eta]
    e = eta
    while e < 0.25:
        e *= 8.0
        etas.append(min(e, 0.5))
    m = None
    for e in reversed(etas):
        m, _ = _solve_complex_many(profile, xs + 1j * e, m)
    return m


# ---------------------------------------------------------------------------
# real-axis solver (x above the support edge)
# ---------------------------------------------------------------------------


class _ProfileCache:
    """Memos of pure functions of their key: edge, m(x), log potential, G^{-1}."""

    __slots__ = ("exact", "edge", "log_pot", "ginv")

    def __init__(self):
        self.exact: dict[float, np.ndarray] = {}
        self.edge: tuple[float, float] | None = None
        self.log_pot: dict[float, float] = {}
        self.ginv: dict[float, float] = {}


_caches: dict[tuple, _ProfileCache] = {}


def _cache(profile: VarianceProfile) -> _ProfileCache:
    c = _caches.get(profile.key)
    if c is None:
        c = _ProfileCache()
        _caches[profile.key] = c
    return c


def _real_residual(profile, xs, m):
    return 1.0 / m - xs[:, None] + (m * profile.weights) @ profile.sigma


def _newton_real(profile, xs, m0, tol_factor=1e-12, max_iter=80):
    """Damped Newton on the real system at each x in xs from the rows of m0.

    The line search halves the step until it keeps m > 0 and lowers the
    residual.  A row that fails, or that lands on the repelling branch
    (spectral radius of the map Jacobian diag(m^2) sigma diag(w) above 1),
    comes back as NaN.  Each row stops on its own test; only an exactly
    singular Jacobian, which LAPACK reports for the whole stack, fails every
    row still iterating.
    """
    xs = np.asarray(xs, dtype=float)
    m = np.array(m0, dtype=float)
    W = profile.sigma * profile.weights[None, :]
    diag = np.arange(profile.p)
    tol = tol_factor * (1.0 + np.abs(xs))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        act = np.all(np.isfinite(m) & (m > 0), axis=1)
        m[~act] = np.nan
        res = np.max(np.abs(_real_residual(profile, xs, m)), axis=1)
        for _ in range(max_iter):
            act &= ~(res < tol)
            idx = np.flatnonzero(act)
            if idx.size == 0:
                break
            ma, xa, ra, ta = m[idx], xs[idx], res[idx], tol[idx]
            J = np.broadcast_to(W, (idx.size,) + W.shape).copy()
            J[:, diag, diag] -= 1.0 / ma**2
            try:
                delta = np.linalg.solve(J, -_real_residual(profile, xa, ma)[..., None])[..., 0]
            except np.linalg.LinAlgError:
                delta = np.full_like(ma, np.nan)
            t = np.ones(idx.size)
            pend = np.ones(idx.size, dtype=bool)
            for _ in range(50):
                cand = ma + t[:, None] * delta
                cres = np.max(np.abs(_real_residual(profile, xa, cand)), axis=1)
                ok = np.all(cand > 0, axis=1) & np.isfinite(cres)
                take = pend & ok & ((cres < ra * (1 - 1e-4 * t)) | (cres < ta))
                ma[take], ra[take] = cand[take], cres[take]
                pend &= ~take
                if not pend.any():
                    break
                t[pend] /= 2.0
            m[idx], res[idx] = ma, ra
            act[idx[pend]] = False
        m[act | ~(res < tol)] = np.nan
    good = np.flatnonzero(~np.isnan(m[:, 0]))
    if good.size:
        M = (m[good] ** 2)[:, :, None] * profile.sigma * profile.weights
        rho = np.max(np.abs(np.linalg.eigvals(M)), axis=1)
        m[good[~(rho <= 1.0 + 1e-6)]] = np.nan
    return m


def _fixed_point_seed(profile, xs):
    """Iterates of m <- 1/(x - sigma (w m)) from m = 0, per row until the
    relative step falls below 1e-4 (at most 1000 steps).

    The map is increasing on the positive cone, so the iterates rise to its
    smallest positive fixed point, the physical branch; below the edge they
    leave the cone and the row becomes NaN.
    """
    m = np.zeros((xs.size, profile.p))
    act = np.ones(xs.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(1000):
            idx = np.flatnonzero(act)
            if idx.size == 0:
                break
            old = m[idx]
            nxt = 1.0 / (xs[idx, None] - (old * profile.weights) @ profile.sigma)
            bad = ~np.all(np.isfinite(nxt) & (nxt > 0), axis=1)
            done = np.max(np.abs(nxt - old) / nxt, axis=1) < 1e-4
            nxt[bad] = np.nan
            m[idx] = nxt
            act[idx[bad | done]] = False
    return m


def _solve_real_many(profile, xs) -> np.ndarray:
    """Rows m(x) for real x above the support edge, one per entry of xs."""
    xs = np.asarray(xs, dtype=float)
    m = _newton_real(profile, xs, _fixed_point_seed(profile, xs))
    bad = np.isnan(m[:, 0])
    if bad.any():
        raise ConvergenceError(
            f"real-axis solve failed at x={xs[bad][0]}; is x above the support edge?"
        )
    return m


def _solve_real(profile, x):
    """Per-block values m_k(x) for real x above the support edge (memoized)."""
    c = _cache(profile)
    x = float(x)
    m = c.exact.get(x)
    if m is None:
        m = _solve_real_many(profile, [x])[0]
        if len(c.exact) < 65536:
            c.exact[x] = m
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "z": [self.z.real, self.z.imag],
                "m": [[v.real, v.imag] for v in self.m],
                "G_blocks": [[v.real, v.imag] for v in self.G_blocks],
                "G_total": [self.G_total.real, self.G_total.imag],
                "iterations": self.iterations,
                "residual": self.residual,
            }
        )


def solve_dyson(profile: VarianceProfile, z, init=None) -> DysonSolution:
    """Solve the block Dyson system at a spectral parameter z.

    Im z > 0 is a batch of one for the complex solve, started from init
    when given; iterations is its sweep count.  Real z is
    accepted when it lies above the support edge and is solved by the
    real-axis Newton from the fixed-point seed; at or below the edge this
    raises ConvergenceError.
    """
    z = complex(z)
    if z.imag < 0:
        raise ValueError("solve_dyson needs Im z >= 0")
    if z.imag > 0:
        m0 = None if init is None else np.asarray(init, dtype=complex)[None, :]
        m, its = _solve_complex_many(profile, np.array([z]), m0)
        mc, it = m[0], int(its[0])
        if np.isnan(mc).any():
            raise ConvergenceError(f"Dyson iteration did not converge at z={z}")
    else:
        mc = _solve_real(profile, z.real).astype(complex)
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


def solve_dyson_finite(SigmaN: np.ndarray, z, step_tol=STEP_TOL, max_iter=20000) -> np.ndarray:
    """Fixed point of the size-N system 1/m_i = z - (1/N) sum_j Sigma_ij m_j."""
    S = np.asarray(SigmaN, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("SigmaN must be square")
    if not np.allclose(S, S.T, atol=1e-12):
        raise ValueError("SigmaN must be symmetric")
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("solve_dyson_finite needs Im z > 0")
    n = S.shape[0]
    m = np.full(n, 1.0 / z, dtype=complex)
    for it in range(max_iter):
        nxt = 1.0 / (z - (S @ m) / n)
        step = hyperbolic_distance(m, nxt)
        m = nxt
        if step < step_tol:
            return m
    raise ConvergenceError(f"finite-N Dyson iteration stalled at z={z}")


def stieltjes_total(profile: VarianceProfile, x: float) -> float:
    """G(x) = sum_k w_k m_k(x) for real x above the support edge."""
    _, r = support_edge(profile)
    if not x > r + 1e-9:
        raise ValueError(f"stieltjes_total needs x > r_edge + 1e-9 = {r + 1e-9:.9g}")
    m = _solve_real(profile, x)
    return float(profile.weights @ m)


def _g_total(profile, x):
    return float(profile.weights @ _solve_real(profile, x))


def _g_prime(profile, x, m=None):
    if m is None:
        m = _solve_real(profile, x)
    J = profile.sigma * profile.weights[None, :] - np.diag(1.0 / m**2)
    mprime = np.linalg.solve(J, np.ones(profile.p))
    return float(profile.weights @ mprime)


def stieltjes_inverse(profile: VarianceProfile, two_theta: float) -> float:
    """The v > r_edge with G(v) = two_theta, by safeguarded Newton.

    Seeded from the tail series G(v) ~ 1/v + a/v^3; bisection steps take over
    whenever Newton leaves the admissible range.
    """
    if two_theta <= 0:
        raise ValueError("two_theta must be positive")
    c = _cache(profile)
    hit = c.ginv.get(two_theta)
    if hit is not None:
        return hit
    _, r = support_edge(profile)
    eps = 1e-9 * (1.0 + profile.max_sigma)
    lo = r + eps
    g_lo = _g_total(profile, lo)
    if two_theta >= g_lo:
        raise ValueError(
            f"two_theta={two_theta:.6g} out of range: G just above the edge is {g_lo:.6g}"
        )
    a = profile.mean_sigma
    v = max(1.0 / two_theta + a * two_theta, lo + eps)
    hi = None
    for _ in range(200):
        m = _solve_real(profile, v)
        g = float(profile.weights @ m)
        if abs(g - two_theta) <= 1e-13 * two_theta:
            break
        if g > two_theta:
            lo = max(lo, v)
        else:
            hi = v if hi is None else min(hi, v)
        cand = v - (g - two_theta) / _g_prime(profile, v, m)
        if not (cand > lo) or (hi is not None and not (cand < hi)):
            if hi is None:
                cand = max(2.0 * v, 2.0 * lo)
            else:
                cand = 0.5 * (lo + hi)
        if cand > 1e300:
            raise ValueError("two_theta too small to invert")
        v = cand
    if abs(_g_total(profile, v) - two_theta) > 1e-10:
        raise ConvergenceError(f"stieltjes_inverse polish failed at two_theta={two_theta}")
    if len(c.ginv) < 65536:
        c.ginv[two_theta] = float(v)
    return float(v)


# ---------------------------------------------------------------------------
# support edge
# ---------------------------------------------------------------------------

_SCAN_CHUNK = 128    # scan grid points per batched edge predicate
_BISECT_LEVELS = 4   # bisection levels whose midpoints are tested in one batch


def _edge_predicate(profile, xs) -> np.ndarray:
    """For each x of xs, True when x is strictly above the support: vanishing
    density and a stable real-axis solution with positive per-block values."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.size, dtype=bool)
    idx = np.flatnonzero(xs > 0)
    e1, e2 = _PREDICATE_ETAS
    x = xs[idx]
    m_mid = _descend(profile, x, e1)
    m_lo, _ = _solve_complex_many(profile, x + 1j * e2, m_mid)
    f1 = -np.imag(m_mid @ profile.weights) / np.pi
    f2 = -np.imag(m_lo @ profile.weights) / np.pi
    dens = (e1 * f2 - e2 * f1) / (e1 - e2)
    below = dens < DENSITY_FLOOR  # False on the NaN rows of a failed solve
    m = _newton_real(profile, x[below], np.real(m_lo[below]))
    out[idx[below]] = np.all(m > 0, axis=1)
    return out


def support_edge(profile: VarianceProfile) -> tuple[float, float]:
    """Support edges (l, r) of the limiting measure; l = -r by symmetry.

    The right edge is located by a coarse scan down from the operator-norm
    bound 2 sqrt(A) followed by bisection of the edge predicate.  The scan
    tests its grid in chunks from the top; the bisection tests the midpoints
    of its next few levels in one batch and then walks them in order, so its
    brackets, and r, are those of the one-point-at-a-time bisection.
    """
    c = _cache(profile)
    if c.edge is not None:
        return c.edge
    A = profile.max_sigma
    hi = 2.0 * np.sqrt(A) + 0.1 * (1.0 + np.sqrt(A))
    grid = np.linspace(hi, 0.0, 257)
    for start in range(0, grid.size, _SCAN_CHUNK):  # the last point, 0, is never above
        pred = _edge_predicate(profile, grid[start : start + _SCAN_CHUNK])
        if not pred.all():
            break
    first_false = start + int(np.argmin(pred))
    if first_false == 0:
        raise ConvergenceError("support_edge bracket failure: no sign change on the scan grid")
    lo, up = grid[first_false], grid[first_false - 1]
    tol = 1e-6 * (1.0 + A)
    while up - lo > tol:
        # the midpoints of the next levels in heap order: node i halves the
        # span of spans[i], whose halves are spans[2i+1] and spans[2i+2]
        spans = [(lo, up)]
        for i in range(2**_BISECT_LEVELS - 1):
            a, b = spans[i]
            spans += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
        mids = [b for _, b in spans[1::2]]
        pred = _edge_predicate(profile, mids)
        i = 0
        while i < len(mids) and up - lo > tol:
            if pred[i]:
                up, i = mids[i], 2 * i + 1
            else:
                lo, i = mids[i], 2 * i + 2
    r = 0.5 * (lo + up)
    c.edge = (-r, r)
    return c.edge


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
    total_mass_error: float
    flags: np.ndarray = field(default=None)

    def to_csv(self) -> str:
        p = self.block_densities.shape[0]
        header = "x,density," + ",".join(f"density_block_{k+1}" for k in range(p))
        lines = [header]
        for i, x in enumerate(self.x_grid):
            cols = [repr(float(x)), repr(float(self.density[i]))]
            cols += [repr(float(self.block_densities[k, i])) for k in range(p)]
            lines.append(",".join(cols))
        return "\n".join(lines) + "\n"


def _richardson_weights(etas: np.ndarray) -> np.ndarray:
    """c with c @ f(etas) the polynomial extrapolation of f to eta = 0."""
    k = etas.size
    coef = np.ones(k)
    for i in range(k):
        for j in range(k):
            if j != i:
                coef[i] *= etas[j] / (etas[j] - etas[i])
    return coef


def spectral_measure(
    profile: VarianceProfile,
    x_min: float,
    x_max: float,
    points: int,
    eta_schedule=DEFAULT_ETA_SCHEDULE,
) -> SpectralMeasure:
    """Reconstruct the limiting density on a grid by vanishing-eta extrapolation.

    density(x) is the Richardson limit of -Im G(x + i eta)/pi over the eta
    schedule; per-block densities use the mass-w_k transforms.  The whole
    grid descends the eta ladder to the first eta in one batched solve, and
    each later eta starts from the previous eta's rows.  Grid points where
    the extrapolation oscillates (atoms, edges) are flagged.
    """
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        raise ValueError("x_min and x_max must be finite")
    if not x_min < x_max:
        raise ValueError("x_min must be below x_max")
    if points < 2:
        raise ValueError("points must be >= 2")
    etas = np.asarray(eta_schedule, dtype=float)
    if np.any(etas <= 0) or np.any(np.diff(etas) >= 0):
        raise ValueError("eta_schedule must be positive and decreasing")
    grid = np.linspace(x_min, x_max, points)
    vals = np.empty((etas.size, points, profile.p), dtype=complex)
    vals[0] = _descend(profile, grid, etas[0])
    for ie in range(1, etas.size):
        vals[ie], _ = _solve_complex_many(profile, grid + 1j * etas[ie], vals[ie - 1])
    failed = np.isnan(vals).any(axis=(0, 2))
    if failed.any():
        raise ConvergenceError(f"Dyson iteration did not converge at x={grid[failed][0]}")
    block_f = -np.imag(profile.weights * vals) / np.pi  # (etas, points, p)
    total_f = block_f.sum(axis=2)
    coef = _richardson_weights(etas)
    d0 = coef @ total_f
    # unstable when dropping the coarsest eta moves the answer: atoms and
    # edge points do, smooth density and the empty region do not
    d0_short = _richardson_weights(etas[1:]) @ total_f[1:] if etas.size > 2 else d0
    flags = (np.abs(d0 - d0_short) > 0.05 * np.abs(d0) + 1e-6) | (d0 < -1e-6)
    density = np.maximum(d0, 0.0)
    blocks = np.maximum(np.tensordot(coef, block_f, 1).T, 0.0)
    mass = float(np.trapezoid(density, grid))
    l_edge, r_edge = support_edge(profile)
    return SpectralMeasure(
        x_grid=grid,
        density=density,
        block_densities=blocks,
        l_edge=l_edge,
        r_edge=r_edge,
        total_mass_error=abs(mass - 1.0),
        flags=flags,
    )


# ---------------------------------------------------------------------------
# log potential
# ---------------------------------------------------------------------------

_GL_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(n: int):
    if n not in _GL_RULES:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_RULES[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_RULES[n]


def _tail_integrand(profile, x, t):
    """(G(x/t) - t/x) x/t^2 at each t in (0, 1]."""
    g = _solve_real_many(profile, x / t) @ profile.weights
    return (g - t / x) * (x / t**2)


def log_potential(profile: VarianceProfile, x: float) -> float:
    """integral log(x - y) d mu(y) for x above the support edge.

    Computed through the tail identity
        log x - integral_x^inf (G(s) - 1/s) ds,
    with the infinite range mapped to (0, 1] by s = x/t.  Gauss-Legendre with
    order doubling covers the absolute tolerance 1e-9; adaptive quadrature is
    the fallback when the doubling disagrees (x hugging the edge).
    """
    _, r = support_edge(profile)
    if not x > r:
        raise ValueError(f"log_potential needs x > r_edge = {r:.9g}")
    c = _cache(profile)
    hit = c.log_pot.get(x)
    if hit is not None:
        return hit
    t80, t160 = (float(w @ _tail_integrand(profile, x, t)) for t, w in (_gl_rule(80), _gl_rule(160)))
    if abs(t160 - t80) < 5e-10:
        tail = t160
    else:
        tail, _ = quad(
            lambda t: float(_tail_integrand(profile, x, np.array([t]))[0]),
            0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300,
        )
    val = float(np.log(x) - tail)
    if len(c.log_pot) < 65536:
        c.log_pot[x] = val
    return val
