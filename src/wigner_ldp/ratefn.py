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
projected-gradient descent from the same p + 1 + 8 starts at every x
of a sweep, all of them the rows of one stack (`_descend_simplex`), cut
into whole-x chunks of at most _SWEEP_ENTRIES rows x p (`rate_sweep`);
a report does not depend on the other xs of its sweep.  Each row tries its own
Barzilai-Borwein length first (Barzilai-Borwein, IMA J. Numer. Anal. 1988;
the spectral projected gradient of Birgin-Martinez-Raydan, SIAM J. Optim.
2000), backtracks to its own Armijo test, and stops on its own
projected-gradient norm or gain; a row still running at the iteration cap
is reported as capped.  The halvings are tried in stacked blocks, and a row
takes its first length that passes or no longer moves it, of at most 40;
rows are independent, so that is the length one halving per call reaches.

The ingredients J, phi, K, F and Fhat are row cores over stacks of
(x, theta, psi) (`_J_rows`, `_phi_rows`, `_K_rows`, `_F_rows`,
`_F_hat_rows`); `eval_J` and the other public functions are one-row calls
of them.  A core takes the context (xs, m(x), G(x)) of its rows from its
caller, built once by `_ctx`: it checks the xs against the edge and solves
one x through the real-axis memo, a stack as one batch of `_solve_real`, so
a caller solves each x once.  J and phi come from one core, `_tilt_rows`,
which finds one tilt point v per row and reads both off it: below the seam
2 theta < G(x), v = G^{-1}(2 theta) comes with m(v) from one batch of the
bordered solve, so one solve per tilt point.  A core checks the rest of its
stack once, as the one-row call checks one row.

Row independence rests on one rule: every reduction over a row is one BLAS
call per row (`dyson._rows_matvec`, and `_rowsum` and `_quad` through it), and
everything else is elementwise.  So a row's values, and its trajectory in the
descent, are the same bits alone, stacked, permuted or strided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyson import (
    ConvergenceError, _edge_margin, _free_energy, _inverse_solve, _quad, _rows_matvec, _rowsum,
    _solve_real, _solve_real_at, require_above_edge, support_edge,
)
from .profiles import UsageError, VarianceProfile, _finite

_SEAM_TOL = 1e-12  # evaluate J and phi from the 2 theta >= G(x) side inside this
_EPS_FLOOR = 1e-8  # <psi, S psi> at or below which a start is degenerate
_SWEEP_ENTRIES = 1 << 16  # rows x p per chunk of a sweep's descent: 512 kB per row array
_RANDOM_STARTS = 8  # Dirichlet starts after the deterministic ones
_TOL = 1e-9  # the descent's stationarity (tol/10) and gain (tol/1000) stops
# trial lengths a row gets per call of f in the line search, 40 in all: the first
# alone, as most rows take it, then stacked (widths chosen by timing rate sweeps)
_BLOCKS = (1, 8, 31)
# largest x a sweep takes: I and the descent's gradients grow like x^2; past
# about 1e34 the projection of psi - t g loses psi to rounding on multi-block
# profiles, and past 1e154 the 0.5 w u^2 of _sup_fhat overflows
_X_MAX = 1e30

# ---------------------------------------------------------------------------
# simplex plumbing
# ---------------------------------------------------------------------------


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, of each row of v
    along its last axis."""
    rows = np.asarray(v, dtype=float).reshape(-1, np.shape(v)[-1])
    u = -np.sort(-rows, axis=1)
    css = (np.cumsum(u, axis=1) - 1.0) / np.arange(1, u.shape[1] + 1)
    k = u.shape[1] - 1 - np.argmax((u > css)[:, ::-1], axis=1)  # last k with u_k > css_k
    return np.maximum(rows - css[np.arange(len(css)), k][:, None], 0.0).reshape(np.shape(v))


# ---------------------------------------------------------------------------
# shared per-(profile, x) context
# ---------------------------------------------------------------------------


def _ctx(profile: VarianceProfile, xs):
    """(xs, m(x), G(x)) as stacks, one row per x of xs; the first x not above the
    edge raises `require_above_edge`'s error.  One x reads the memo `_solve_real_at`,
    more are one batch of `_solve_real`; a row that fails raises the memo's error."""
    xs = np.asarray(xs, dtype=float)
    _, r = support_edge(profile)
    bad = np.flatnonzero(~((r < xs) & (xs < np.inf)))
    if bad.size:
        require_above_edge(profile, float(xs[bad[0]]))
    M = _solve_real_at(profile, xs[0])[None] if xs.size == 1 else _solve_real(profile, xs)
    failed = np.flatnonzero(np.isnan(M).any(axis=1))
    if failed.size:
        _solve_real_at(profile, xs[failed[0]])  # fails again, alone, and raises
    return xs, M, _rows_matvec(profile.weights, M)


def _take(ctx, rows):
    """The context of the given rows of ctx."""
    return tuple(a[rows] for a in ctx)


# ---------------------------------------------------------------------------
# building blocks J, phi, K, F, Fhat: row cores over stacks, and one-row calls
# ---------------------------------------------------------------------------


def _tilt_rows(profile: VarianceProfile, thetas, ctx, psis):
    """(J, phi) per row of the context ctx at tilt strength theta > 0, both read
    off one tilt point v: x where 2 theta >= G(x) (from that side inside
    _SEAM_TOL), else v = G^{-1}(2 theta) > x, where phi's excess 1 - G/(2 theta)
    is 0 and the bordered solve gives m(v) too, all such rows in one batch.  The
    log potential at v is the free energy at m(v); psis may be one mass vector."""
    v, m_v, G = ctx
    below = np.flatnonzero(2.0 * thetas < G - _SEAM_TOL)
    if below.size:
        v, m_v = v.copy(), m_v.copy()
        v[below], m_v[below] = _inverse_solve(profile, 2.0 * thetas[below])
    J = thetas * v - 0.5 - 0.5 * np.log(2.0 * thetas) - 0.5 * _free_energy(profile, v, m_v)
    t2 = 2.0 * thetas[:, None]
    vals = profile.weights * m_v / t2 + np.maximum(1.0 - G[:, None] / t2, 0.0) * psis
    return J, vals / _rowsum(vals)[:, None]


def _J_rows(profile: VarianceProfile, thetas, ctx) -> np.ndarray:
    """J(x, theta) per row of the stack thetas and the context ctx (see `eval_J`)."""
    thetas = _finite(thetas, "theta", "nonnegative")
    J = np.zeros(len(thetas))
    pos = np.flatnonzero(thetas > 0.0)  # theta = 0 rows keep the limit value 0
    if pos.size:  # phi is not read: the weights stand in for psi
        J[pos] = _tilt_rows(profile, thetas[pos], _take(ctx, pos), profile.weights)[0]
    return J


def _phi_rows(profile: VarianceProfile, thetas, ctx, psis) -> np.ndarray:
    """phi(theta, x, psi) per row of the stacks and the context (see `eval_phi`)."""
    thetas, psis = _finite(thetas, "theta", "positive"), profile.mass_rows(psis)
    return _tilt_rows(profile, thetas, ctx, psis)[1]


def _K_at(profile, thetas, phis):
    """K per row of the mass vectors phis; -inf where one has an empty block."""
    w, empty = profile.weights, (phis <= 0.0).any(axis=1)
    entropy = _rows_matvec(w, np.log(np.where(phis > 0.0, phis, w) / w))  # log 0 skipped
    K = thetas * thetas * _quad(profile.sigma, phis) + 0.5 * entropy
    K[empty] = -np.inf
    return K


def _K_rows(profile: VarianceProfile, thetas, phis) -> np.ndarray:
    """K(theta, phi) per row of the stacks (see `eval_K`)."""
    return _K_at(profile, _finite(thetas, "theta", "nonnegative"), profile.mass_rows(phis))


def _F_rows(profile: VarianceProfile, thetas, ctx, psis) -> np.ndarray:
    """F(theta, x, psi) per row of the stacks and the context (see `eval_F`):
    J and phi from one tilt point per row."""
    thetas, psis = _finite(thetas, "theta", "nonnegative"), profile.mass_rows(psis)
    F = np.zeros(len(thetas))
    pos = np.flatnonzero(thetas > 0.0)  # F vanishes at theta = 0
    if pos.size:
        th = thetas[pos]
        J, phi = _tilt_rows(profile, th, _take(ctx, pos), psis[pos])
        F[pos] = J - _K_at(profile, th, phi)
    return F


def _F_hat_rows(profile: VarianceProfile, theta_hats, ctx, psis) -> np.ndarray:
    """Fhat(theta_hat, x, psi) per row of the stacks and the context (see `eval_F_hat`)."""
    th = _finite(theta_hats, "theta_hat", "nonnegative")
    u, lin, a = _fhat_parts(profile, ctx[1], profile.mass_rows(psis))
    return _fhat(profile.weights, u, lin, a, th)


def eval_J(profile: VarianceProfile, x: float, theta: float) -> float:
    """Spherical-integral limit J(x, theta).

    For 2 theta >= G(x): theta x - 1/2 - log(2 theta)/2 - logpot(x)/2.
    Otherwise x is replaced by v = G^{-1}(2 theta) > x.  The log potential
    is the free energy at the tilt point's m(v), as in `log_potential`.
    theta = 0 returns the limit value 0.  One row of `_J_rows`.
    """
    return float(_J_rows(profile, [theta], _ctx(profile, [x]))[0])


def eval_phi(profile: VarianceProfile, theta: float, x: float, psi) -> np.ndarray:
    """Mass vector phi(theta, x, psi) of the tilted eigenvector profile
    (theta > 0).  One row of `_phi_rows`."""
    return _phi_rows(profile, [theta], _ctx(profile, [x]), [psi])[0]


def eval_K(profile: VarianceProfile, theta: float, phi) -> float:
    """Annealed-integral limit K(theta, phi); -inf when the entropy diverges.
    One row of `_K_rows`."""
    return float(_K_rows(profile, [theta], [phi])[0])


def eval_F(profile: VarianceProfile, theta: float, x: float, psi) -> float:
    """F(theta, x, psi) = J(x, theta) - K(theta, phi(theta, x, psi)).

    Vanishes identically for theta <= G(x)/2.  One row of `_F_rows`.
    """
    return float(_F_rows(profile, [theta], _ctx(profile, [x]), [psi])[0])


def eval_F_hat(profile: VarianceProfile, theta_hat: float, x: float, psi) -> float:
    """Shifted objective; equals eval_F(theta_hat + G(x)/2, x, psi).  One row
    of `_F_hat_rows`."""
    return float(_F_hat_rows(profile, [theta_hat], _ctx(profile, [x]), [psi])[0])


def f_hat_gradient(profile: VarianceProfile, theta_hat: float, x: float, psi) -> np.ndarray:
    """Analytic simplex gradient of Fhat in psi at fixed theta_hat."""
    M = _ctx(profile, [x])[1]
    th = _finite(theta_hat, "theta_hat", "nonnegative")
    psi = profile.mass_vector(psi)[None]
    return _fhat_grad(profile, M, th[None], psi)[0]


def _fhat_parts(profile, m, psi):
    """(u, lin, a) per row of psi at m = m(x): u_k = 2 psi_k / (w_k m_k),
    lin = <1/m, psi> and a = <psi, S psi>."""
    u = 2.0 * psi / (profile.weights * m)
    return u, _rowsum(psi / m), _quad(profile.sigma, psi)


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
    idx = np.flatnonzero(fin & (h0 > 0.0))  # rows still rising, and their parts
    t, uu, ci, a2 = h0[idx] / (2.0 * a[idx] * u[idx].max(axis=1)), u[idx], c[idx], 2.0 * a[idx]
    th[idx] = t
    for _ in range(200):
        if idx.size == 0:
            break
        q = 1.0 / (1.0 + t[:, None] * uu)
        h = _rowsum(ci * q) - a2
        up = h > 0.0
        nxt = t + h / _rowsum(ci * uu * q * q)
        th[idx[up]] = nxt[up]
        go = up & ~(nxt - t <= 4.0 * np.spacing(nxt))
        idx, t, uu, ci, a2 = idx[go], nxt[go], uu[go], ci[go], a2[go]
    val[fin] = np.maximum(_fhat(profile.weights, u[fin], lin[fin], a[fin], th[fin]), 0.0)
    return val, th


def sup_theta(profile: VarianceProfile, x: float, psi):
    """Maximize the tilt objective; returns (theta_star, F_star).

    A zero quadratic form makes the supremum infinite (the linear term always
    has positive coefficient for a mass vector), reported as (inf, inf).
    """
    _, M, G = _ctx(profile, [x])
    val, th = _sup_fhat(profile, M, profile.mass_vector(psi)[None], 0.0)
    if np.isinf(val[0]):
        return np.inf, np.inf
    return float(th[0] + G[0] / 2.0), float(val[0])


# ---------------------------------------------------------------------------
# rate function: multi-start projected gradient over the simplex
# ---------------------------------------------------------------------------


@dataclass
class RateEvalReport:
    x: float
    I: float
    psi_star: np.ndarray
    theta_star: float
    starts_used: int
    spread: float
    diagnostics: dict = field(default_factory=dict)


def _default_starts(profile: VarianceProfile) -> np.ndarray:
    """Rows: the weights; per block k, its vertex when sigma_kk > 0, else the
    midpoint of k and its first partner l (sigma_kl > 0), and none for an
    isolated block; then _RANDOM_STARTS Dirichlet draws of default_rng(0)."""
    eye = np.eye(profile.p)
    partner = profile.sigma * (1.0 - eye) > 0
    own = np.diag(profile.sigma) > 0
    corners = np.where(own[:, None], eye, (eye + eye[np.argmax(partner, axis=1)]) / 2)
    draws = np.random.default_rng(0).dirichlet(np.ones(profile.p), size=_RANDOM_STARTS)
    return np.vstack([profile.weights, corners[own | partner.any(axis=1)], draws])


def _descend_simplex(f, grad, psi, max_iter, tol):
    """Projected-gradient descent over the simplex from every row of psi at
    once, with f(rows, idx) -> (values, aux) and grad(rows, aux, idx) acting
    row by row (idx: the rows' indices in psi, for per-row parameters).

    A row stops before a step once its projected-gradient step
    |P(psi - g) - psi| is at most tol/10 (a p = 1 row at its start), and
    after one when no length passes the Armijo test or its gain falls below
    tol/1000.  Its first trial length is the short Barzilai-Borwein length
    s'y/y'y of its last accepted step s and the gradient change y over it,
    or twice its last accepted length on its first step or when s'y <= 0.
    It takes the first of t, t/2, t/4, ... (at most 40 lengths) that passes
    the Armijo test or no longer moves it (|cand - psi| < 1e-13, a stop).
    The first length is one call of f; a row that neither passes nor stops
    there tries its next lengths in stacked blocks (_BLOCKS), one copy of the
    row per length in one call of f.  f and grad act row by row, so a row's
    extra copies change no bit: the result is that of halving one length per
    call.
    Returns (psi, values, aux, iterations, capped) per row, where capped
    marks the rows still running after max_iter steps; a row where f is not
    finite at its start comes back as it is, with 0 iterations."""
    psi = np.array(psi, dtype=float)
    val, aux = f(psi, np.arange(len(psi)))
    step = np.ones(len(psi))
    s, g_last = np.zeros_like(psi), np.zeros_like(psi)  # last accepted step, gradient before it
    its = np.zeros(len(psi), dtype=int)
    act = np.isfinite(val)
    for k in range(max_iter + 1):
        idx = np.flatnonzero(act)
        if idx.size == 0:
            break
        x0 = psi[idx]
        g = grad(x0, aux[idx], idx)
        pg = project_simplex(x0 - g) - x0
        run = np.sqrt(_rowsum(pg * pg)) > 0.1 * tol
        act[idx[~run]] = False
        if k == max_iter:
            break
        idx, x0, g = idx[run], x0[run], g[run]
        v0, t = val[idx], 2.0 * step[idx]
        y = g - g_last[idx]
        sy = _rowsum(s[idx] * y)
        bb = (its[idx] > 0) & (sy > 0.0)  # a running row accepted its last step
        t[bb] = sy[bb] / _rowsum(y[bb] ** 2)
        its[idx] += 1
        g_last[idx] = g
        gain = np.full(idx.size, -np.inf)
        j = rj = np.arange(idx.size)  # rows still backtracking; each row once per length
        tk = t
        for n, width in enumerate(_BLOCKS):
            if n:  # the next lengths of the rows in j, by successive halving
                tk = np.cumprod(np.column_stack([t[j] / 2.0, np.full((j.size, width - 1), 0.5)]), axis=1)
                t[j] = tk[:, -1]
                rj, tk = np.repeat(j, width), tk.ravel()
            cand = project_simplex(x0[rj] - tk[:, None] * g[rj])
            nd = np.sqrt(_rowsum((cand - x0[rj]) ** 2))
            moved = nd >= 1e-13  # a row that no longer moves stops
            cval, caux = f(cand, idx[rj])
            ok = moved & (cval <= v0[rj] - 1e-4 * nd * nd / np.maximum(tk, 1e-300))
            end = (ok | ~moved).reshape(-1, width)
            first = np.arange(j.size) * width + np.argmax(end, axis=1)  # each row's first end
            won = first[ok[first]]
            acc = rj[won]
            gain[acc] = v0[acc] - cval[won]
            rows = idx[acc]
            s[rows] = cand[won] - x0[acc]
            psi[rows], val[rows], aux[rows], step[rows] = cand[won], cval[won], caux[won], tk[won]
            j = j[~end.any(axis=1)]
            if j.size == 0:
                break
        act[idx[~(gain >= 1e-3 * tol)]] = False
    return psi, val, aux, its, act


def _minimize_from(profile, M, starts):
    """Projected-gradient descent of psi -> sup_theta Fhat from every row of
    starts at every x of a sweep at once, at most 400 steps a row, given the
    rows m(x) of M; the rows are xs x starts, x-major, each reading the m(x) of
    its own x.  Returns (psi, value, theta_hat, iterations, capped) per row,
    with value inf on rows whose start is degenerate (a <= _EPS_FLOOR)."""
    at = np.repeat(np.arange(len(M)), len(starts))  # each row's x
    return _descend_simplex(
        lambda psi, idx: _sup_fhat(profile, M[at[idx]], psi, _EPS_FLOOR),
        lambda psi, th, idx: _fhat_grad(profile, M[at[idx]], th, psi),
        np.tile(project_simplex(starts), (len(M), 1)), 400, _TOL,
    )


def _edge_report(profile, x, below):
    """The report at x below the edge (I = inf) or at it (I = 0)."""
    return RateEvalReport(
        x=x, I=np.inf if below else 0.0, psi_star=np.full(profile.p, 1.0 / profile.p),
        theta_star=0.0, starts_used=0, spread=0.0,
        diagnostics={"note": "below support edge" if below else "at support edge"},
    )


def _report(profile, x, G, psi, vals, th, its, capped):
    """The report at x above the edge, where G = G(x), from its rows of `_minimize_from`."""
    fin = np.flatnonzero(np.isfinite(vals))
    if fin.size == 0:
        raise ValueError(f"no feasible start: <psi, S psi> <= {_EPS_FLOOR} at every start")
    best = fin[np.argmin(vals[fin])]  # the first start among equal values
    return RateEvalReport(
        x=x,
        I=float(vals[best]),
        psi_star=psi[best] / psi[best].sum(),
        theta_star=float(th[best] + G / 2.0),
        starts_used=len(vals),
        spread=float(vals[fin].max() - vals[best]),
        diagnostics={
            "iterations": int(its[fin].sum()),
            "converged_starts": int(fin.size - capped.sum()),
            "capped_starts": int(capped.sum()),
            "upper_bound_4a": x * x / (4.0 * profile.mean_sigma),
        },
    )


def rate_sweep(profile: VarianceProfile, xs) -> list[RateEvalReport]:
    """Rate of deviation of the top eigenvalue to each x of xs, in order.

    Infinite below the support edge, zero at it.  Above it the value is the
    best of a multi-start projected-gradient minimization of the tilt
    envelope over mass vectors kept off the degenerate set by _EPS_FLOOR,
    from the profile's fixed starts (`_default_starts`), so a report is a
    function of (profile, x).  The starts of every distinct x above the edge
    descend together as the rows of one stack (`_descend_simplex`, stopping
    at _TOL), in whole-x chunks of at most _SWEEP_ENTRIES rows x p; rows are
    independent, so a report does not depend on the other xs of the sweep.
    A repeated x is solved and descended once, and each of its positions
    gets its own report from those rows.
    The spread across feasible starts is reported rather than hidden.
    diagnostics counts the feasible starts' iterations, the starts that met
    a stopping test (`converged_starts`) and those still running at the
    400-step cap (`capped_starts`).
    """
    for x in xs:
        if not x <= _X_MAX:  # nan, +inf or too large; -inf is below the edge
            raise UsageError(f"x={x!r} must be finite and at most {_X_MAX:g}")
    _, r = support_edge(profile)
    edge_tol = _edge_margin(profile)
    reports = [None if x > r + edge_tol else _edge_report(profile, x, x < r - edge_tol) for x in xs]
    at = {}  # each distinct x above the edge, with its positions in xs
    for j, rep in enumerate(reports):
        if rep is None:
            at.setdefault(xs[j], []).append(j)
    above = list(at)
    start_rows = _default_starts(profile)
    n = len(start_rows)
    size = max(1, _SWEEP_ENTRIES // (n * profile.p))
    for b in range(0, len(above), size):
        chunk = above[b : b + size]
        _, M, G = _ctx(profile, chunk)
        rows = _minimize_from(profile, M, start_rows)
        for k, x in enumerate(chunk):
            for j in at[x]:
                reports[j] = _report(profile, xs[j], G[k], *(a[k * n : (k + 1) * n] for a in rows))
    return reports


def rate_function(profile: VarianceProfile, x: float) -> RateEvalReport:
    """Rate of deviation of the top eigenvalue to x, a function of (profile,
    x) alone: a sweep of one x (`rate_sweep`)."""
    return rate_sweep(profile, [x])[0]


# ---------------------------------------------------------------------------
# concave profiles: exchanged min-max
# ---------------------------------------------------------------------------


def _tangent_concave(profile: VarianceProfile) -> bool:
    p = profile.p
    P = np.eye(p) - np.full((p, p), 1.0 / p)
    M = P @ profile.sigma @ P
    ev = np.linalg.eigvalsh((M + M.T) / 2.0)
    return bool(ev.max() <= 1e-10 * max(1.0, profile.max_sigma))


def _sup_K_over_psi(profile, thetas, ctx):
    """sup over psi of K(theta, phi(theta, x, psi)) per theta of thetas at the
    one x of the context ctx, as the rows of one projected-gradient ascent; K is
    concave in psi on concave profiles.  Needs theta >= G(x)/2, where
    phi = c + beta psi with beta >= 0 (at 2 theta = G, beta = 0 and phi does not
    depend on psi)."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    _, (m_x,), (G,) = ctx
    w, sig = profile.weights, profile.sigma
    c = w * m_x / (2.0 * th[:, None])
    beta = 1.0 - G / (2.0 * th)

    # ascent of K as the descent of -K (negation is exact)
    def minus_K(psi, i):
        return -_K_at(profile, th[i], c[i] + beta[i, None] * psi), np.zeros(len(psi))

    def minus_grad(psi, _, i):
        phi = c[i] + beta[i, None] * psi
        return -(beta[i, None] * (2.0 * th[i, None] ** 2 * _rows_matvec(sig, phi) + 0.5 * w / phi))

    return -_descend_simplex(minus_K, minus_grad, np.tile(w, (th.size, 1)), 300, 0.0)[1]


def rate_function_concave(profile: VarianceProfile, x: float) -> float:
    """Rate via the exchanged order: sup over theta of J minus sup-K.

    Valid when psi -> <psi, S psi> is concave on the simplex (checked on the
    tangent space); must agree with rate_function on such profiles.
    """
    # imported on first call: at module level scipy.optimize would add about
    # 0.15 s and 20 MB to every CLI run, and only `validate --suite wishart` comes here
    from scipy.optimize import minimize_scalar

    if not _tangent_concave(profile):
        raise UsageError("profile is not concave on the simplex tangent space")
    ctx = _ctx(profile, [x])
    G = ctx[2][0]

    def value(th_hat):  # J - sup K at each shifted tilt strength of th_hat
        theta = np.atleast_1d(th_hat) + G / 2.0
        J = _J_rows(profile, theta, _take(ctx, np.zeros(theta.size, dtype=int)))
        return J - _sup_K_over_psi(profile, theta, ctx)

    grid = np.linspace(0.0, x / profile.mean_sigma, 161)
    i = int(np.argmax(value(grid)))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(lambda t: -float(value(t)[0]), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-9})
    if not res.success:
        raise ConvergenceError(f"exchanged-order sup over theta failed: {res.message}")
    return float(max(-res.fun, 0.0))


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
    eigenvalue: nu(z) = 2 theta lambda_max(sqrt(D) S sqrt(D)) = 1 with
    D = diag(m_k(z) phi(theta)_k).  Returns r_edge when no solution exists.

    nu decreases in z above the edge, so the root is unique.  As
    m_k(z) <= 1/(z - r) there and the Perron root is monotone in D,
    nu(z) <= nu|_{m=1} / (z - r), and [r + margin, r + nu|_{m=1}] brackets
    it for Brent's method."""
    from scipy.optimize import brentq  # on first call, as in rate_function_concave

    phi = eval_phi(profile, theta, x, psi)
    _, r = support_edge(profile)

    def excess(z):
        return _nu(profile, theta, _solve_real_at(profile, z), phi) - 1.0

    z_lo = r + _edge_margin(profile)
    if excess(z_lo) <= 0.0:
        return float(r)
    return float(brentq(excess, z_lo, r + _nu(profile, theta, np.ones(profile.p), phi), xtol=1e-15))


def find_tilt_theta(profile: VarianceProfile, x: float, psi) -> float:
    """The tilt strength theta* whose outlier sits exactly at x (nu(theta) = 1),
    in closed form (the tilt of Guionnet-Maida 2005).

    Below the seam, 2 theta < G(x), nu < 1.  Above it, with t = 2 theta - G,
    phi = (w m + t psi) / (2 theta) at m = m(x), so nu(theta) is the top
    eigenvalue of sigma diag(w m^2 + t m psi), increasing in t.  With
    B = diag(m psi) and K = (I - sigma diag(w m^2))^{-1} sigma, symmetric,
    entrywise >= 0 and finite above the edge, nu = 1 first at t = 1/mu,
    where mu > 0 is the top eigenvalue of B^{1/2} K B^{1/2}; so
    theta* = (G + 1/mu) / 2.
    """
    _, (m,), (G,) = _ctx(profile, [x])
    psi = profile.mass_vector(psi)
    if _quad(profile.sigma, psi) <= 0.0:
        raise UsageError("find_tilt_theta needs <psi, S psi> > 0")
    K = np.linalg.solve(np.eye(profile.p) - profile.sigma * (profile.weights * m * m), profile.sigma)
    b = np.sqrt(m * psi)
    mu = np.linalg.eigvalsh(b[:, None] * (0.5 * (K + K.T)) * b)[-1]
    return float((G + 1.0 / mu) / 2.0)
