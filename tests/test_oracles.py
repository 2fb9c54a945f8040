import numpy as np
import pytest
from scipy.integrate import quad

from wigner_ldp import oracles


def test_goe_rate_edge_zero():
    assert oracles.goe_rate(2.0) == 0.0


def test_goe_rate_matches_integral_form():
    # independent route: I(x) = (1/2) integral_2^x sqrt(y^2 - 4) dy
    for x in (2.2, 3.0, 4.0):
        ref, _ = quad(lambda y: np.sqrt(y * y - 4.0), 2.0, x)
        assert oracles.goe_rate(x) == pytest.approx(0.5 * ref, abs=1e-10)


def test_goe_rate_values():
    assert oracles.goe_rate(3.0) == pytest.approx(0.714627, abs=5e-7)
    # closed form evaluates to 0.0605151 at x = 2.2
    assert oracles.goe_rate(2.2) == pytest.approx(0.06051507, abs=1e-8)


def test_goe_rate_derivative():
    for x in (2.3, 3.0, 3.7):
        h = 1e-6
        fd = (oracles.goe_rate(x + h) - oracles.goe_rate(x - h)) / (2 * h)
        assert fd == pytest.approx(np.sqrt(x * x - 4) / 2, rel=1e-6)


def test_goe_rate_domain():
    with pytest.raises(ValueError):
        oracles.goe_rate(1.9)


# -- Marchenko-Pastur --------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
def test_mp_quadratic_residual(alpha):
    rng = np.random.default_rng(1)
    for _ in range(30):
        z = complex(rng.uniform(-8, 12), rng.uniform(0.1, 4.0))
        g = oracles.mp_stieltjes(alpha, z)
        assert abs(z * g * g - (z - alpha + 1) * g + 1.0) < 1e-12


def test_mp_tail():
    for alpha in (1.0, 2.0):
        z = 1e4
        assert oracles.mp_stieltjes(alpha, z) == pytest.approx(1 / z, rel=1e-3)


def test_mp_conjugate_symmetry():
    z = 2.0 + 1.5j
    assert oracles.mp_stieltjes(2.0, np.conj(z)) == pytest.approx(
        np.conj(oracles.mp_stieltjes(2.0, z))
    )


def test_mp_against_density_quadrature():
    for alpha, z in [(1.0, 5.0), (2.0, 7.5)]:
        lo, hi = oracles.mp_support(alpha)
        ref, _ = quad(lambda u: oracles.mp_density(alpha, u) / (z - u), lo, hi, limit=200)
        assert complex(oracles.mp_stieltjes(alpha, z)).real == pytest.approx(ref, abs=1e-8)


def test_mp_moment_series_order6():
    # MP moments via Narayana numbers: m_k = sum_j N(k, j) alpha^j
    from math import comb

    alpha, z = 1.0, 5.0
    moments = [1.0]
    for k in range(1, 7):
        moments.append(sum(comb(k, j) * comb(k, j - 1) // k * alpha**j for j in range(1, k + 1)))
    partial = sum(m / z ** (k + 1) for k, m in enumerate(moments))
    # remainder bounded by a geometric tail from the next moment on
    hi = oracles.mp_support(alpha)[1]
    rem = moments[-1] * hi / z**8 / (1 - hi / z)
    assert abs(complex(oracles.mp_stieltjes(alpha, z)).real - partial) < rem + 1e-12


# -- BBP and block composition ----------------------------------------------


def test_bbp_threshold_and_values():
    assert oracles.bbp_outlier(0.5) == 2.0
    assert oracles.bbp_outlier(0.3) == 2.0
    assert oracles.bbp_outlier(1.0) == pytest.approx(2.5)
    assert oracles.bbp_outlier(50.0) == pytest.approx(100.0, rel=1e-3)


def test_block_rate_symmetric_blocks():
    rate = lambda y: oracles.goe_rate(y)
    x = 3.0
    assert oracles.block_rate(0.5, rate, rate, x) == pytest.approx(
        0.5 * oracles.goe_rate(x * np.sqrt(2.0))
    )


def test_block_rate_degenerate_alpha():
    # with equal blocks the shrinking block's branch ~ x^2/4 never undercuts
    rate = lambda y: oracles.goe_rate(y)
    vals = [oracles.block_rate(a, rate, rate, 4.3) for a in (0.9, 0.99, 0.999)]
    assert vals[-1] == pytest.approx(oracles.goe_rate(4.3), rel=1e-2)
    assert abs(vals[-1] - oracles.goe_rate(4.3)) < abs(vals[0] - oracles.goe_rate(4.3))


def test_semicircle_helpers():
    grid = np.linspace(-2, 2, 4001)
    # trapezoid converges like h^(3/2) at the sqrt edges
    assert np.trapezoid(oracles.sc_density(grid), grid) == pytest.approx(1.0, abs=1e-5)
