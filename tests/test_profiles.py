import json

import numpy as np
import pytest

from wigner_ldp.profiles import (
    ContinuousProfileSpec,
    ProfileConfigError,
    VarianceProfile,
    discretize,
    load_profile,
    sigma_quadratic_form,
)

from conftest import random_profile


def test_load_constant():
    prof = load_profile('{"kind": "constant"}')
    assert prof.weights.tolist() == [1.0]
    assert prof.sigma.tolist() == [[1.0]]


def test_load_wishart_alpha2():
    prof = load_profile('{"kind": "wishart", "alpha": 2.0}')
    assert np.allclose(prof.weights, [1 / 3, 2 / 3], atol=1e-15)
    assert prof.sigma.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_load_block_half_1_4():
    prof = load_profile('{"kind": "block", "alpha": 0.5, "sigma1": 1, "sigma2": 4}')
    assert prof.weights.tolist() == [0.5, 0.5]
    assert prof.sigma.tolist() == [[1.0, 0.0], [0.0, 4.0]]


def test_load_nested_block():
    cfg = {
        "kind": "block",
        "alpha": 0.5,
        "sigma1": {"kind": "wishart", "alpha": 2.0},
        "sigma2": 3.0,
    }
    prof = load_profile(json.dumps(cfg))
    assert prof.p == 3
    assert np.allclose(prof.weights, [1 / 6, 1 / 3, 1 / 2])
    assert prof.sigma[2, 2] == 3.0 and prof.sigma[0, 2] == 0.0


@pytest.mark.parametrize(
    "cfg",
    [
        '{"kind": "nope"}',
        '{"weights": [1.0]}',
        '{"kind": "piecewise_constant", "weights": [0.5, 0.5], "sigma": [[1, 2], [3, 1]]}',
        '{"kind": "piecewise_constant", "weights": [0.5, 0.5], "sigma": [[1, -1], [-1, 1]]}',
        '{"kind": "piecewise_constant", "weights": [0.6, 0.5], "sigma": [[1, 0], [0, 1]]}',
        '{"kind": "piecewise_constant", "weights": [1.0], "sigma": [[0.0]]}',
        '{"kind": "wishart", "alpha": 0.8}',
        '{"kind": "block", "alpha": 1.5, "sigma1": 1, "sigma2": 2}',
        '{"kind": "grid"}',
        "not json at all",
    ],
)
def test_bad_configs_raise(cfg):
    with pytest.raises(ProfileConfigError):
        load_profile(cfg)


@pytest.mark.parametrize(
    "weights, sigma",
    [
        ([np.nan, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.5, np.inf], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.5, 0.5], [[1.0, np.nan], [np.nan, 1.0]]),
        ([0.5, 0.5], [[np.inf, 0.0], [0.0, 1.0]]),
    ],
)
def test_non_finite_profile_rejected(weights, sigma):
    with pytest.raises(ProfileConfigError, match="finite"):
        VarianceProfile(weights=weights, sigma=sigma)
    cfg = {"kind": "piecewise_constant", "weights": weights, "sigma": sigma}
    with pytest.raises(ProfileConfigError, match="finite"):
        load_profile(json.dumps(cfg))


def test_weight_tolerance_renormalizes():
    prof = load_profile(
        '{"kind": "piecewise_constant", "weights": [0.5, 0.5000000001], "sigma": [[1, 0], [0, 1]]}'
    )
    assert prof.weights.sum() == 1.0


def test_grid_roundtrip(tmp_path):
    g = np.fromfunction(lambda i, j: 1.0 + 0 * i, (8, 8))
    path = tmp_path / "grid.txt"
    np.savetxt(path, g)
    prof = load_profile(json.dumps({"kind": "grid", "file": str(path), "p": 4}))
    assert isinstance(prof, VarianceProfile)
    assert np.allclose(prof.sigma, 1.0)
    spec = load_profile(json.dumps({"kind": "grid", "file": str(path)}))
    assert isinstance(spec, ContinuousProfileSpec)


def test_serialization_roundtrip_bit_exact(named_profiles):
    for prof in named_profiles:
        back = load_profile(json.dumps(prof.to_config()))
        assert np.array_equal(back.weights, prof.weights)
        assert np.array_equal(back.sigma, prof.sigma)


def test_equal_profiles_compare_and_hash_equal():
    sigma = [[1.0, 0.5, 0.2], [0.5, 2.0, 0.1], [0.2, 0.1, 3.0]]
    a = VarianceProfile(np.array([0.2, 0.3, 0.5]), np.array(sigma), label="a")
    b = VarianceProfile(np.array([0.2, 0.3, 0.5]), np.array(sigma), label="b")
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert load_profile('{"kind": "wishart", "alpha": 2}') == load_profile(
        '{"kind": "wishart", "alpha": 2, "label": "other"}'
    )


def test_profiles_with_different_sigma_differ():
    w = np.array([0.5, 0.5])
    a = VarianceProfile(w, np.array([[1.0, 0.0], [0.0, 4.0]]))
    b = VarianceProfile(w, np.array([[1.0, 0.0], [0.0, 4.0 + 1e-12]]))
    assert a != b
    assert a != (a.weights, a.sigma)


# -- discretization ----------------------------------------------------------


def test_discretize_constant_exact():
    spec = ContinuousProfileSpec.from_function(lambda s, t: np.ones_like(s), 16)
    prof, rep = discretize(spec, 4)
    assert np.allclose(prof.sigma, 1.0)
    assert rep.sup_error == 0.0


def test_discretize_linear_cell_averages():
    spec = ContinuousProfileSpec.from_function(lambda s, t: s + t, 64)
    prof, _ = discretize(spec, 2)
    assert np.allclose(prof.sigma, [[0.5, 1.0], [1.0, 1.5]], atol=1e-12)


def test_discretize_refinement_monotone():
    spec = ContinuousProfileSpec.from_function(lambda s, t: s + t, 64)
    errs = [discretize(spec, p)[1].sup_error for p in (2, 4, 8)]
    assert errs[1] <= errs[0] and errs[2] <= errs[1]


def test_discretize_p_exceeds_resolution():
    spec = ContinuousProfileSpec.from_function(lambda s, t: s + t, 8)
    with pytest.raises(ValueError):
        discretize(spec, 16)


# -- quadratic form ----------------------------------------------------------


def test_quadratic_form_constant_is_one(const_prof):
    rng = np.random.default_rng(0)
    psi = rng.dirichlet([1.0])
    assert sigma_quadratic_form(const_prof, psi, psi) == pytest.approx(1.0)


def test_quadratic_form_wishart(wishart2):
    w = wishart2.weights
    assert sigma_quadratic_form(wishart2, w, w) == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_quadratic_form_block_vertex(block_14):
    assert sigma_quadratic_form(block_14, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)


def test_quadratic_form_symmetric_and_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        prof = random_profile(rng)
        for _ in range(20):
            a = rng.dirichlet(np.ones(prof.p))
            b = rng.dirichlet(np.ones(prof.p))
            q_ab = sigma_quadratic_form(prof, a, b)
            assert q_ab == pytest.approx(sigma_quadratic_form(prof, b, a), rel=1e-12)
            assert sigma_quadratic_form(prof, a, a) >= 0.0


def test_quadratic_form_dimension_mismatch(wishart2):
    with pytest.raises(ValueError):
        sigma_quadratic_form(wishart2, [1.0], [0.5, 0.5])
