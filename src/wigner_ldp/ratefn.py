"""Large-deviation rate of the top eigenvalue: inf over mass vectors of a
sup over tilt strengths.

Two equivalent objective forms are carried: the shifted form

    Fhat(th, x, psi) = th <1/m(x), psi> - th^2 <psi, S psi>
                       - (1/2) sum_k w_k log(1 + 2 th psi_k / (w_k m_k(x)))

which is what the optimizer runs on (no log potential, no transform
inversion), and the tilt form F(theta, x, psi) = J(x, theta) -
K(theta, phi(theta, x, psi)) built from its published ingredients.  They
agree through theta = th + G(x)/2, which the test suite pins at 1e-9.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dyson import _solve_real, log_potential, stieltjes_inverse, support_edge
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
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = (np.cumsum(u) - 1.0) / np.arange(1, v.size + 1)
    k = np.nonzero(u > css)[0][-1]
    return np.maximum(v - css[k], 0.0)


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
    return r


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
    psi = _mass_vector(psi, profile.p)
    m_x, _ = _ctx(profile, x)
    a = float(psi @ profile.sigma @ psi)
    lin = float(np.sum(psi / m_x))
    u = 2.0 * psi / (profile.weights * m_x)
    log_term = 0.5 * float(profile.weights @ np.log1p(theta_hat * u))
    return theta_hat * lin - theta_hat**2 * a - log_term


def f_hat_gradient(profile: VarianceProfile, theta_hat: float, x: float, psi) -> np.ndarray:
    """Analytic simplex gradient of Fhat in psi at fixed theta_hat."""
    psi = _mass_vector(psi, profile.p)
    m_x, _ = _ctx(profile, x)
    th = theta_hat
    spsi = profile.sigma @ psi
    return th / m_x - 2.0 * th**2 * spsi - th / (m_x + 2.0 * th * psi / profile.weights)


# ---------------------------------------------------------------------------
# sup over the tilt strength
# ---------------------------------------------------------------------------

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
    best = max([(c, fc), (d, fd)] + ends, key=lambda t: t[1])
    return best


def _fhat_closure(profile, x, psi):
    m_x, _ = _ctx(profile, x)
    a = float(psi @ profile.sigma @ psi)
    lin = float(np.sum(psi / m_x))
    u = 2.0 * psi / (profile.weights * m_x)
    w = profile.weights

    def fhat(th):
        return th * lin - th * th * a - 0.5 * float(w @ np.log1p(th * u))

    return fhat, a, lin


def sup_theta(profile: VarianceProfile, x: float, psi):
    """Maximize the tilt objective; returns (theta_star, F_star).

    The search interval [0, x/<psi,S psi>] in the shifted variable covers the
    maximum: beyond it the parabola bound forces the objective negative.
    A zero quadratic form makes the supremum infinite (the linear term always
    has positive coefficient for a mass vector), reported as (inf, inf).
    """
    _require_above_edge(profile, x)
    psi = _mass_vector(psi, profile.p)
    fhat, a, lin = _fhat_closure(profile, x, psi)
    if a <= 0.0:
        if lin > 0.0:
            return np.inf, np.inf
        return float(_ctx(profile, x)[1] / 2.0), 0.0
    th, val = _golden_max(fhat, 0.0, x / a, 1e-10)
    _, G = _ctx(profile, x)
    if val < 0.0:  # theta = theta_x is always feasible and gives zero
        return G / 2.0, 0.0
    return float(th + G / 2.0), float(val)


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


def _default_starts(profile: VarianceProfile, n_random: int, seed: int) -> list[np.ndarray]:
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
    return starts


def _minimize_from(profile, x, psi0, eps_floor, tol, max_iter=400):
    """Projected-gradient descent of psi -> sup_theta Fhat from one start."""

    def value_and_theta(psi):
        fhat, a, _ = _fhat_closure(profile, x, psi)
        if a < eps_floor:
            return np.inf, 0.0
        th, val = _golden_max(fhat, 0.0, x / a, 1e-10)
        return max(val, 0.0), th

    psi = project_simplex(psi0.copy())
    val, th = value_and_theta(psi)
    if not np.isfinite(val):
        return None
    step = 1.0
    its = 0
    for its in range(max_iter):
        g = f_hat_gradient(profile, th, x, psi)
        moved = False
        t = step * 2.0
        for _ in range(40):
            cand = project_simplex(psi - t * g)
            delta = cand - psi
            nd = float(np.linalg.norm(delta))
            if nd < 1e-13:
                break
            cval, cth = value_and_theta(cand)
            if cval <= val - 1e-4 * nd * nd / max(t, 1e-300):
                gain = val - cval
                psi, val, th, step = cand, cval, cth, t
                moved = True
                break
            t /= 2.0
        if not moved or gain < tol * 1e-3:
            break
    return psi, val, th, its + 1


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
    envelope over mass vectors kept off the degenerate set by eps_floor; the
    spread across converged starts is reported rather than hidden.
    """
    _, r = support_edge(profile)
    p = profile.p
    edge_tol = 1e-9 * (1.0 + profile.max_sigma)
    if x < r - edge_tol:
        return RateEvalReport(
            x=x, I=np.inf, psi_star=SimplexVector.uniform(p), theta_star=0.0,
            starts_used=0, spread=0.0, diagnostics={"note": "below support edge"},
        )
    if x <= r + edge_tol:
        return RateEvalReport(
            x=x, I=0.0, psi_star=SimplexVector.uniform(p), theta_star=0.0,
            starts_used=0, spread=0.0, diagnostics={"note": "at support edge"},
        )
    results = []
    total_iters = 0
    start_list = _default_starts(profile, starts, seed)
    for s in start_list:
        out = _minimize_from(profile, x, s, eps_floor, tol)
        if out is None:
            continue
        psi, val, th, its = out
        total_iters += its
        results.append((val, psi, th))
    if not results:
        raise ValueError("no feasible start: quadratic form below eps_floor everywhere")
    results.sort(key=lambda t: t[0])
    vals = [v for v, _, _ in results]
    best_val, best_psi, best_th = results[0]
    _, G = _ctx(profile, x)
    return RateEvalReport(
        x=x,
        I=float(best_val),
        psi_star=SimplexVector(best_psi / best_psi.sum()),
        theta_star=float(best_th + G / 2.0),
        starts_used=len(start_list),
        spread=float(vals[-1] - vals[0]),
        diagnostics={
            "iterations": total_iters,
            "converged_starts": len(results),
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


def _sup_K_over_psi(profile, theta, x, iters=300):
    """sup over mass vectors of K(theta, phi(theta, x, psi)) by projected
    gradient ascent; K is concave in psi on concave profiles."""
    m_x, G = _ctx(profile, x)
    w, sig = profile.weights, profile.sigma
    if 2.0 * theta <= G:
        return eval_K(profile, theta, eval_phi(profile, theta, x, SimplexVector.uniform(profile.p)))
    c = w * m_x / (2.0 * theta)
    beta = 1.0 - G / (2.0 * theta)

    def K_of(psi):
        phi = c + beta * psi
        return theta**2 * float(phi @ sig @ phi) + 0.5 * float(w @ np.log(phi / w))

    psi = w.copy()
    val = K_of(psi)
    step = 1.0
    for _ in range(iters):
        phi = c + beta * psi
        g = beta * (2.0 * theta**2 * (sig @ phi) + 0.5 * w / phi)
        t = step * 2.0
        moved = False
        for _ in range(40):
            cand = project_simplex(psi + t * g)
            nd = float(np.linalg.norm(cand - psi))
            if nd < 1e-13:
                break
            cval = K_of(cand)
            if cval >= val + 1e-4 * nd * nd / max(t, 1e-300):
                psi, val, step, moved = cand, cval, t, True
                break
            t /= 2.0
        if not moved:
            break
    return val


def rate_function_concave(profile: VarianceProfile, x: float) -> float:
    """Rate via the exchanged order: sup over theta of J minus sup-K.

    Valid when psi -> <psi, S psi> is concave on the simplex (checked on the
    tangent space); must agree with rate_function on such profiles.
    """
    if not _tangent_concave(profile):
        raise ValueError("profile is not concave on the simplex tangent space")
    _require_above_edge(profile, x)
    m_x, G = _ctx(profile, x)
    a_w = profile.mean_sigma

    def value(th_hat):
        theta = th_hat + G / 2.0
        return eval_J(profile, x, theta) - _sup_K_over_psi(profile, theta, x)

    hi = x / a_w
    grid = np.linspace(0.0, hi, 161)
    vals = [value(t) for t in grid]
    i = int(np.argmax(vals))
    lo_b = grid[max(i - 1, 0)]
    hi_b = grid[min(i + 1, len(grid) - 1)]
    _, best = _golden_max(value, lo_b, hi_b, 1e-9)
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
