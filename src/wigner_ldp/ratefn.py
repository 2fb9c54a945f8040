"""Large-deviation rate of the top eigenvalue: inf over mass vectors of a
sup over tilt strengths.

Two equivalent objective forms are carried: the shifted form

    Fhat(th, x, psi) = th <1/m(x), psi> - th^2 <psi, S psi>
                       - (1/2) sum_k w_k log(1 + th u_k),   u_k = 2 psi_k / (w_k m_k(x)),

which is what the optimizer runs on (no log potential, no transform
inversion), and the tilt form F(theta, x, psi) = J(x, theta) -
K(theta, phi(theta, x, psi)) built from its published ingredients.  They
agree through theta = th + G(x)/2, which the test suite pins at 1e-9.

Since <1/m, psi> = (1/2) sum_k w_k u_k, Fhat'(th) = th h(th) with
h(th) = (1/2) sum_k w_k u_k^2 / (1 + th u_k) - 2 <psi, S psi>, which is
strictly decreasing and convex: the sup over th is at 0 when h(0) <= 0 and
otherwise at the root of h, which Newton from below reaches monotonically,
with no bracket or fallback (`_sup_fhat`).  The inf over psi is a
projected-gradient descent from all p + 1 + `starts` starts of one x as the
rows of one array; each row keeps its own Armijo length and stopping test,
and every per-row sum runs in a fixed order, never a BLAS product across
rows, so a row's trajectory is the same alone, stacked or permuted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dyson import _rows_matvec, _solve_real, log_potential, stieltjes_inverse, support_edge
from .profiles import VarianceProfile

_SEAM_TOL = 1e-12  # evaluate J from the 2 theta >= G(x) side inside this

# ---------------------------------------------------------------------------
# simplex plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexVector:
    """Probability masses per block; density on block k is values_k / w_k."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.ndim != 1 or v.size == 0:
            raise ValueError("simplex vector must be 1-d and nonempty")
        if np.any(v < 0):
            raise ValueError("simplex vector entries must be nonnegative")
        if abs(v.sum() - 1.0) > 1e-12:
            raise ValueError(f"simplex vector sums to {v.sum():.15g}, expected 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def uniform(cls, p: int) -> "SimplexVector":
        return cls(np.full(p, 1.0 / p))

    @classmethod
    def vertex(cls, p: int, k: int) -> "SimplexVector":
        v = np.zeros(p)
        v[k] = 1.0
        return cls(v)


def _mass_vector(psi, p: int) -> np.ndarray:
    v = np.asarray(getattr(psi, "values", psi), dtype=float)
    if v.shape != (p,):
        raise ValueError(f"expected a mass vector of length {p}")
    if np.any(v < -1e-12) or abs(v.sum() - 1.0) > 1e-9:
        raise ValueError("mass vector must be nonnegative and sum to 1")
    return np.clip(v, 0.0, None)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, of each row of v
    along its last axis."""
    rows = np.asarray(v, dtype=float).reshape(-1, np.shape(v)[-1])
    u = -np.sort(-rows, axis=1)
    css = (np.cumsum(u, axis=1) - 1.0) / np.arange(1, u.shape[1] + 1)
    k = u.shape[1] - 1 - np.argmax((u > css)[:, ::-1], axis=1)  # last k with u_k > css_k
    return np.maximum(rows - css[np.arange(len(css)), k][:, None], 0.0).reshape(np.shape(v))


def _rowsum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis in a fixed order (see `dyson._rows_matvec`)."""
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k]
    return out


# ---------------------------------------------------------------------------
# shared per-(profile, x) context
# ---------------------------------------------------------------------------


def _ctx(profile: VarianceProfile, x: float):
    """(m(x), G(x)) for real x above the edge; m(x) is memoized per profile."""
    m = _solve_real(profile, x)
    return m, float(profile.weights @ m)


def _require_above_edge(profile, x):
    _, r = support_edge(profile)
    if not x > r:
        raise ValueError(f"x={x:.9g} must exceed the support edge r={r:.9g}")


# ---------------------------------------------------------------------------
# building blocks J, phi, K, F, Fhat
# ---------------------------------------------------------------------------


def eval_J(profile: VarianceProfile, x: float, theta: float) -> float:
    """Spherical-integral limit J(x, theta).

    For 2 theta >= G(x): theta x - 1/2 - log(2 theta)/2 - logpot(x)/2.
    Otherwise x is replaced by v = G^{-1}(2 theta) > x.  theta = 0 returns
    the limit value 0.
    """
    _require_above_edge(profile, x)
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if theta == 0.0:
        return 0.0
    _, G = _ctx(profile, x)
    if 2.0 * theta >= G - _SEAM_TOL:
        v = x
    else:
        v = stieltjes_inverse(profile, 2.0 * theta)
    return (
        theta * v
        - 0.5
        - 0.5 * math.log(2.0 * theta)
        - 0.5 * log_potential(profile, v)
    )


def eval_phi(profile: VarianceProfile, theta: float, x: float, psi) -> SimplexVector:
    """Mass vector phi(theta, x, psi) of the tilted eigenvector profile."""
    _require_above_edge(profile, x)
    if theta <= 0:
        raise ValueError("theta must be positive")
    psi = _mass_vector(psi, profile.p)
    m_x, G = _ctx(profile, x)
    if 2.0 * theta >= G - _SEAM_TOL:
        m_v = m_x
        excess = max(1.0 - G / (2.0 * theta), 0.0)
    else:
        v = stieltjes_inverse(profile, 2.0 * theta)
        m_v = _solve_real(profile, v)
        excess = 0.0
    vals = profile.weights * m_v / (2.0 * theta) + excess * psi
    return SimplexVector(vals / vals.sum())


def eval_K(profile: VarianceProfile, theta: float, phi) -> float:
    """Annealed-integral limit K(theta, phi); -inf when the entropy diverges."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    v = np.asarray(getattr(phi, "values", phi), dtype=float)
    if v.shape != (profile.p,):
        raise ValueError("phi has the wrong length")
    w = profile.weights
    if np.any(v[w > 0] <= 0.0):
        return -np.inf
    quad = float(v @ profile.sigma @ v)
    return theta**2 * quad + 0.5 * float(w @ np.log(v / w))


def eval_F(profile: VarianceProfile, theta: float, x: float, psi) -> float:
    """F(theta, x, psi) = J(x, theta) - K(theta, phi(theta, x, psi)).

    Vanishes identically for theta <= G(x)/2.
    """
    if theta == 0.0:
        _require_above_edge(profile, x)
        return 0.0
    return eval_J(profile, x, theta) - eval_K(profile, theta, eval_phi(profile, theta, x, psi))


def eval_F_hat(profile: VarianceProfile, theta_hat: float, x: float, psi) -> float:
    """Shifted objective; equals eval_F(theta_hat + G(x)/2, x, psi)."""
    _require_above_edge(profile, x)
    if theta_hat < 0:
        raise ValueError("theta_hat must be nonnegative")
    u, lin, a = _fhat_parts(profile, _solve_real(profile, x), _mass_vector(psi, profile.p)[None])
    return float(_fhat(profile.weights, u, lin, a, np.array([float(theta_hat)]))[0])


def f_hat_gradient(profile: VarianceProfile, theta_hat: float, x: float, psi) -> np.ndarray:
    """Analytic simplex gradient of Fhat in psi at fixed theta_hat."""
    psi = _mass_vector(psi, profile.p)[None]
    return _fhat_grad(profile, _solve_real(profile, x), np.array([float(theta_hat)]), psi)[0]


def _fhat_parts(profile, m, psi):
    """(u, lin, a) per row of psi at m = m(x): u_k = 2 psi_k / (w_k m_k),
    lin = <1/m, psi> and a = <psi, S psi>."""
    u = 2.0 * psi / (profile.weights * m)
    return u, _rowsum(psi / m), _rowsum(psi * _rows_matvec(profile.sigma, psi))


def _fhat(w, u, lin, a, th):
    """Fhat per row at the tilt strengths th."""
    return th * lin - th * th * a - 0.5 * _rowsum(w * np.log1p(th[:, None] * u))


def _fhat_grad(profile, m, th, psi):
    """Simplex gradient of Fhat in psi per row at the tilt strengths th."""
    t = th[:, None]
    spsi = _rows_matvec(profile.sigma, psi)
    return t / m - 2.0 * t * t * spsi - t / (m + 2.0 * t * psi / profile.weights)


def _sup_fhat(profile, m, psi, a_floor):
    """(sup, theta_hat) per row of psi at m = m(x): the sup of Fhat over th >= 0
    (clamped at 0 against rounding) and its maximizer, (inf, 0) where the sup
    is infinite (a = <psi, S psi> <= a_floor).  theta_hat is 0 when h(0) <= 0,
    else the root of h, by Newton from the root of its lower bound
    (h(0) + 2a) / (1 + th max_k u_k) - 2a (the root itself when p = 1).  A row
    stops when h is no longer positive (the root to rounding) or its step
    falls below 4 ulp."""
    u, lin, a = _fhat_parts(profile, m, psi)
    val, th = np.full(len(psi), np.inf), np.zeros(len(psi))
    fin = a > a_floor
    c = 0.5 * profile.weights * u * u
    h0 = _rowsum(c) - 2.0 * a
    act = fin & (h0 > 0.0)
    th[act] = h0[act] / (2.0 * a[act] * u[act].max(axis=1))
    for _ in range(200):
        idx = np.flatnonzero(act)
        if idx.size == 0:
            break
        t, uu, ci = th[idx], u[idx], c[idx]
        q = 1.0 / (1.0 + t[:, None] * uu)
        h = _rowsum(ci * q) - 2.0 * a[idx]
        up = h > 0.0
        nxt = t + h / _rowsum(ci * uu * q * q)
        th[idx[up]] = nxt[up]
        act[idx[~up | (nxt - t <= 4.0 * np.spacing(nxt))]] = False
    val[fin] = np.maximum(_fhat(profile.weights, u[fin], lin[fin], a[fin], th[fin]), 0.0)
    return val, th


def sup_theta(profile: VarianceProfile, x: float, psi):
    """Maximize the tilt objective; returns (theta_star, F_star).

    A zero quadratic form makes the supremum infinite (the linear term always
    has positive coefficient for a mass vector), reported as (inf, inf).
    """
    _require_above_edge(profile, x)
    m, G = _ctx(profile, x)
    val, th = _sup_fhat(profile, m, _mass_vector(psi, profile.p)[None], 0.0)
    if np.isinf(val[0]):
        return np.inf, np.inf
    return float(th[0] + G / 2.0), float(val[0])


# ---------------------------------------------------------------------------
# rate function: multi-start projected gradient over the simplex
# ---------------------------------------------------------------------------


@dataclass
class RateEvalReport:
    x: float
    I: float
    psi_star: SimplexVector
    theta_star: float
    starts_used: int
    spread: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "x": self.x,
                "I": self.I,
                "psi_star": self.psi_star.values.tolist(),
                "theta_star": self.theta_star,
                "starts_used": self.starts_used,
                "spread": self.spread,
                "diagnostics": self.diagnostics,
            }
        )


def _default_starts(profile: VarianceProfile, n_random: int, seed: int) -> np.ndarray:
    """Rows: the weights, a vertex (or pair midpoint) per block, Dirichlet draws."""
    p = profile.p
    starts = [profile.weights.copy()]
    for k in range(p):
        if profile.sigma[k, k] > 0:
            starts.append(SimplexVector.vertex(p, k).values.copy())
        else:
            for l in range(p):
                if l != k and profile.sigma[k, l] > 0:
                    v = np.zeros(p)
                    v[k] = v[l] = 0.5
                    starts.append(v)
                    break
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        starts.append(rng.dirichlet(np.ones(p)))
    return np.array(starts)


def _descend_simplex(f, grad, psi, max_iter, min_gain):
    """Projected-gradient descent over the simplex from every row of psi at
    once, with f(rows, idx) -> (values, aux) and grad(rows, aux, idx) acting
    row by row (idx: the rows' indices in psi, for per-row parameters).  Each
    row backtracks from twice its last accepted length to the Armijo test and
    drops out when no length passes or its gain falls below min_gain.
    Returns (psi, values, aux, iterations) per row; a row where f is not
    finite at its start comes back as it is, with 0 iterations."""
    psi = np.array(psi, dtype=float)
    val, aux = f(psi, np.arange(len(psi)))
    step = np.ones(len(psi))
    its = np.zeros(len(psi), dtype=int)
    act = np.isfinite(val)
    for _ in range(max_iter):
        idx = np.flatnonzero(act)
        if idx.size == 0:
            break
        its[idx] += 1
        x0, v0, t = psi[idx], val[idx], 2.0 * step[idx]
        g = grad(x0, aux[idx], idx)
        gain = np.full(idx.size, -np.inf)
        j = np.arange(idx.size)  # rows of the stack still backtracking
        for _ in range(40):
            cand = project_simplex(x0[j] - t[j, None] * g[j])
            nd = np.sqrt(_rowsum((cand - x0[j]) ** 2))
            moved = nd >= 1e-13  # a row that no longer moves stops
            cval, caux = f(cand, idx[j])
            ok = moved & (cval <= v0[j] - 1e-4 * nd * nd / np.maximum(t[j], 1e-300))
            acc = j[ok]
            gain[acc] = v0[acc] - cval[ok]
            rows = idx[acc]
            psi[rows], val[rows], aux[rows], step[rows] = cand[ok], cval[ok], caux[ok], t[acc]
            j = j[moved & ~ok]
            if j.size == 0:
                break
            t[j] /= 2.0
        act[idx[~(gain >= min_gain)]] = False
    return psi, val, aux, its


def _minimize_from(profile, x, starts, eps_floor, tol, max_iter=400):
    """Projected-gradient descent of psi -> sup_theta Fhat from every row of
    starts at once; returns (psi, value, theta_hat, iterations) per row, with
    value inf on rows whose start is degenerate (a <= eps_floor)."""
    m, _ = _ctx(profile, x)
    return _descend_simplex(
        lambda psi, _: _sup_fhat(profile, m, psi, eps_floor),
        lambda psi, th, _: _fhat_grad(profile, m, th, psi),
        project_simplex(starts), max_iter, tol * 1e-3,
    )


def rate_function(
    profile: VarianceProfile,
    x: float,
    starts: int = 8,
    eps_floor: float = 1e-8,
    tol: float = 1e-9,
    seed: int = 0,
) -> RateEvalReport:
    """Rate of deviation of the top eigenvalue to x.

    Infinite below the support edge, zero at it.  Above it the value is the
    best of a multi-start projected-gradient minimization of the tilt
    envelope over mass vectors kept off the degenerate set by eps_floor, all
    starts descending together as rows; the spread across converged starts
    is reported rather than hidden.
    """
    _, r = support_edge(profile)
    edge_tol = 1e-9 * (1.0 + profile.max_sigma)
    if x <= r + edge_tol:
        below = x < r - edge_tol
        return RateEvalReport(
            x=x, I=np.inf if below else 0.0, psi_star=SimplexVector.uniform(profile.p),
            theta_star=0.0, starts_used=0, spread=0.0,
            diagnostics={"note": "below support edge" if below else "at support edge"},
        )
    start_rows = _default_starts(profile, starts, seed)
    psi, vals, th, its = _minimize_from(profile, x, start_rows, eps_floor, tol)
    conv = np.flatnonzero(np.isfinite(vals))
    if conv.size == 0:
        raise ValueError("no feasible start: quadratic form below eps_floor everywhere")
    best = conv[np.argmin(vals[conv])]  # the first start among equal values
    _, G = _ctx(profile, x)
    return RateEvalReport(
        x=x,
        I=float(vals[best]),
        psi_star=SimplexVector(psi[best] / psi[best].sum()),
        theta_star=float(th[best] + G / 2.0),
        starts_used=len(start_rows),
        spread=float(vals[conv].max() - vals[best]),
        diagnostics={
            "iterations": int(its[conv].sum()),
            "converged_starts": int(conv.size),
            "upper_bound_4a": x * x / (4.0 * profile.mean_sigma),
        },
    )


# ---------------------------------------------------------------------------
# concave profiles: exchanged min-max
# ---------------------------------------------------------------------------


def _tangent_concave(profile: VarianceProfile, tol=1e-10) -> bool:
    p = profile.p
    P = np.eye(p) - np.full((p, p), 1.0 / p)
    M = P @ profile.sigma @ P
    ev = np.linalg.eigvalsh((M + M.T) / 2.0)
    return bool(ev.max() <= tol * max(1.0, profile.max_sigma))


def _sup_K_over_psi(profile, thetas, x, iters=300):
    """sup over psi of K(theta, phi(theta, x, psi)) per theta of thetas, as the
    rows of one projected-gradient ascent; K is concave in psi on concave profiles."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    m_x, G = _ctx(profile, x)
    w, sig = profile.weights, profile.sigma
    out = np.empty(thetas.size)
    flat = 2.0 * thetas <= G  # phi does not depend on psi there
    out[flat] = [eval_K(profile, t, eval_phi(profile, t, x, w)) for t in thetas[flat]]
    th = thetas[~flat]
    c = w * m_x / (2.0 * th[:, None])
    beta = 1.0 - G / (2.0 * th)

    # ascent of K as the descent of -K (negation is exact)
    def minus_K(psi, i):
        phi = c[i] + beta[i, None] * psi
        K = th[i] ** 2 * _rowsum(phi * _rows_matvec(sig, phi)) + 0.5 * _rowsum(w * np.log(phi / w))
        return -K, np.zeros(len(psi))

    def minus_grad(psi, _, i):
        phi = c[i] + beta[i, None] * psi
        return -(beta[i, None] * (2.0 * th[i, None] ** 2 * _rows_matvec(sig, phi) + 0.5 * w / phi))

    out[~flat] = -_descend_simplex(minus_K, minus_grad, np.tile(w, (th.size, 1)), iters, 0.0)[1]
    return out


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximum of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    h = b - a
    if h <= tol:
        mid = 0.5 * (a + b)
        return mid, f(mid)
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    n = max(1, int(math.ceil(math.log(tol / h) / math.log(_INVPHI))))
    for _ in range(n):
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    ends = [(lo, f(lo)), (hi, f(hi))] if h > tol else []
    return max([(c, fc), (d, fd)] + ends, key=lambda t: t[1])


def rate_function_concave(profile: VarianceProfile, x: float) -> float:
    """Rate via the exchanged order: sup over theta of J minus sup-K.

    Valid when psi -> <psi, S psi> is concave on the simplex (checked on the
    tangent space); must agree with rate_function on such profiles.
    """
    if not _tangent_concave(profile):
        raise ValueError("profile is not concave on the simplex tangent space")
    _require_above_edge(profile, x)
    _, G = _ctx(profile, x)

    def value(th_hat):  # J - sup K at each shifted tilt strength of th_hat
        theta = np.atleast_1d(th_hat) + G / 2.0
        return np.array([eval_J(profile, x, t) for t in theta]) - _sup_K_over_psi(profile, theta, x)

    grid = np.linspace(0.0, x / profile.mean_sigma, 161)
    i = int(np.argmax(value(grid)))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    _, best = _golden_max(lambda t: float(value(t)[0]), lo, hi, 1e-9)
    return float(max(best, 0.0))


# ---------------------------------------------------------------------------
# tilted-ensemble outlier location
# ---------------------------------------------------------------------------


def _nu(profile, theta, z_m, phi):
    """2 theta lambda_max(sqrt(D) S sqrt(D)), D = diag(m_k(z) phi_k)."""
    d = np.maximum(z_m * phi, 0.0)
    sq = np.sqrt(d)
    M = sq[:, None] * profile.sigma * sq[None, :]
    return 2.0 * theta * float(np.linalg.eigvalsh(M)[-1])


def outlier_equation_z(profile: VarianceProfile, theta: float, x: float, psi) -> float:
    """Largest z above the edge where the tilted ensemble detaches an
    eigenvalue: 2 theta lambda_max(sqrt(D) S sqrt(D)) = 1 with
    D = diag(m_k(z) phi(theta)_k).  Returns r_edge when no solution exists."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    _, r = support_edge(profile)
    phi = eval_phi(profile, theta, x, psi).values
    z_lo = r + 1e-9 * (1.0 + profile.max_sigma)
    nu_lo = _nu(profile, theta, _solve_real(profile, z_lo), phi)
    if nu_lo <= 1.0:
        return float(r)
    z_hi = max(x, z_lo) + 1.0
    while _nu(profile, theta, _solve_real(profile, z_hi), phi) > 1.0:
        z_hi = 2.0 * z_hi
        if z_hi > 1e12:
            raise ValueError("outlier location diverged")
    lo, hi = z_lo, z_hi
    while hi - lo > 1e-12 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if _nu(profile, theta, _solve_real(profile, mid), phi) > 1.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def find_tilt_theta(profile: VarianceProfile, x: float, psi) -> float:
    """The tilt strength whose outlier sits exactly at x (nu(theta) = 1)."""
    _require_above_edge(profile, x)
    psi_arr = _mass_vector(psi, profile.p)
    if float(psi_arr @ profile.sigma @ psi_arr) <= 0.0:
        raise ValueError("find_tilt_theta needs <psi, S psi> > 0")
    m_x, _ = _ctx(profile, x)

    def nu(theta):
        phi = eval_phi(profile, theta, x, psi_arr).values
        return _nu(profile, theta, m_x, phi)

    hi = 1.0
    for _ in range(200):
        if nu(hi) > 1.0:
            break
        hi *= 2.0
    else:
        raise ValueError("no tilt strength reaches the target")
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if nu(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))
