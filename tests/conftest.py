import numpy as np
import pytest

from wigner_ldp.profiles import (
    ContinuousProfileSpec, block_profile, constant_profile, discretize, wishart_profile,
)


@pytest.fixture(scope="session")
def const_prof():
    return constant_profile()


@pytest.fixture(scope="session")
def wishart2():
    return wishart_profile(2.0)


@pytest.fixture(scope="session")
def block_14():
    return block_profile(0.5, 1.0, 4.0)


@pytest.fixture(scope="session")
def block_12():
    return block_profile(1.0 / 3.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def grid3():
    """The 3-block cell average of a smooth continuous profile."""
    spec = ContinuousProfileSpec.from_function(lambda s, t: 1 + 2 * np.exp(-4 * (s - t) ** 2) + s * t, 64)
    return discretize(spec, 3)[0]


@pytest.fixture(scope="session")
def named_profiles(const_prof, wishart2, block_14, block_12):
    return [const_prof, wishart2, block_14, block_12]


def random_profile(rng, pmax=4):
    """Small random profile with strictly positive variances."""
    p = int(rng.integers(1, pmax + 1))
    w = rng.dirichlet(np.ones(p) * 5.0)
    s = rng.uniform(0.2, 2.0, size=(p, p))
    s = (s + s.T) / 2.0
    from wigner_ldp.profiles import VarianceProfile

    return VarianceProfile(weights=w, sigma=s)


def split_block(prof, k):
    """The same profile with block k cut into two identical halves."""
    from wigner_ldp.profiles import VarianceProfile

    idx = np.insert(np.arange(prof.p), k, k)
    w = prof.weights[idx].copy()
    w[k : k + 2] /= 2
    return VarianceProfile(w, prof.sigma[np.ix_(idx, idx)])
