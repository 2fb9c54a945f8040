"""Closed-form references: semicircle, Marchenko-Pastur, GOE rate, BBP outlier.

Everything here is independent of the Dyson solver and the optimizers; the
test suite uses these as ground truth.
"""

from __future__ import annotations

import numpy as np


def sc_density(x):
    """Semicircle density on [-2, 2]."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 2, np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2 * np.pi), 0.0)


def goe_rate(x: float) -> float:
    """Large-deviation rate of the top GOE eigenvalue, support edge 2.

    I(x) = (1/2)[(x/2) sqrt(x^2-4) - 2 log((x + sqrt(x^2-4))/2)],
    equivalently (1/2) * integral_2^x sqrt(y^2-4) dy.
    """
    if x < 2:
        raise ValueError("goe_rate needs x >= 2")
    s = np.sqrt(x * x - 4.0)
    return 0.5 * ((x / 2.0) * s - 2.0 * np.log((x + s) / 2.0))


def mp_support(alpha: float) -> tuple[float, float]:
    return ((1 - np.sqrt(alpha)) ** 2, (1 + np.sqrt(alpha)) ** 2)


def mp_stieltjes(alpha: float, z):
    """Stieltjes transform of the Marchenko-Pastur law with mean alpha.

    G(z) = (z - alpha + 1 - sqrt((z-alpha-1)^2 - 4 alpha)) / (2z), with the
    square-root branch that makes G ~ 1/z at infinity.  Valid for complex z
    and for real z outside the support.
    """
    z = np.asarray(z, dtype=complex)
    w = z - alpha - 1.0
    # branch cut along the support only: s ~ +w for large |z|
    s = w * np.sqrt(1.0 - 4.0 * alpha / (w * w))
    g = (z - alpha + 1.0 - s) / (2.0 * z)
    if g.ndim == 0:
        return complex(g)
    return g


def mp_density(alpha: float, u):
    """Density of the MP law with mean alpha (alpha >= 1: no atom)."""
    u = np.asarray(u, dtype=float)
    lo, hi = mp_support(alpha)
    inside = (u > lo) & (u < hi)
    val = np.zeros_like(u)
    val[inside] = np.sqrt((u[inside] - lo) * (hi - u[inside])) / (2 * np.pi * u[inside])
    return val


def bbp_outlier(theta_eff: float) -> float:
    """Outlier location of semicircle (edge 2) plus a rank-one tilt.

    A tilt of strength gamma = 2 theta_eff detaches an eigenvalue at
    gamma + 1/gamma once gamma > 1; below threshold the top eigenvalue
    sticks to the edge.
    """
    g = 2.0 * theta_eff
    if g <= 1.0:
        return 2.0
    return g + 1.0 / g


def block_rate(alpha: float, rate1, rate2, x: float) -> float:
    """Rate of the top eigenvalue of a two-block diagonal ensemble.

    min{ alpha I1(x/sqrt(alpha)), (1-alpha) I2(x/sqrt(1-alpha)) } where the
    handles I1, I2 are the per-block rate functions.
    """
    return min(
        alpha * rate1(x / np.sqrt(alpha)),
        (1 - alpha) * rate2(x / np.sqrt(1 - alpha)),
    )


# -- bipartite (wishart-kind) profile closed forms ---------------------------
#
# For the two-block zero-diagonal profile with weights (1/(1+a), a/(1+a)) the
# per-block unit-mass Stieltjes transforms reduce to MP transforms of the
# squared variable; these serve as solver-independent references.


def wishart_block_stieltjes(alpha: float, z) -> tuple[complex, complex]:
    """Unit-mass per-block transforms (m_1, m_2) of the bipartite profile."""
    z = complex(z)
    m1 = z * (1 + alpha) * mp_stieltjes(alpha, (1 + alpha) * z * z)
    m2 = (1 - 1 / alpha) / z + m1 / alpha
    return m1, m2


def wishart_total_stieltjes(alpha: float, z) -> complex:
    """G(z) = 2 z G_mp((1+alpha) z^2) + (alpha-1)/((1+alpha) z)."""
    z = complex(z)
    return 2.0 * z * mp_stieltjes(alpha, (1 + alpha) * z * z) + (alpha - 1.0) / ((1 + alpha) * z)


def wishart_edge(alpha: float) -> float:
    """Support edge of the bipartite profile: (1 + sqrt(alpha)) / sqrt(1 + alpha)."""
    return (1 + np.sqrt(alpha)) / np.sqrt(1 + alpha)


def wishart_block_density(alpha: float, x, block: int):
    """Unit-mass spectral density of block 1 or 2 (continuous part)."""
    x = np.asarray(x, dtype=float)
    f1 = (1 + alpha) * np.abs(x) * mp_density(alpha, (1 + alpha) * x * x)
    if block == 1:
        return f1
    if block == 2:
        return f1 / alpha
    raise ValueError("block must be 1 or 2")
