"""Unit tests for the radial profile zoo."""

import math

import numpy as np
import pytest

from qrbf import config, kernels


def test_gaussian_values():
    k = kernels.gaussian(sigma=1.0)
    assert k.eval(0.0) == 1.0
    assert np.isclose(k.eval(1.0), math.exp(-0.5))
    r = np.array([0.0, 0.5, 1.0, 2.0])
    vals = k.eval(r)
    assert np.allclose(vals, np.exp(-r * r / 2.0))


def test_gaussian_sigma_eta_equivalence():
    """sigma = sqrt(1/(2 eta^2)) so both parameterizations are the same kernel."""
    eta = 0.7
    sigma = math.sqrt(1.0 / (2.0 * eta * eta))
    a = kernels.gaussian(eta=eta)
    b = kernels.gaussian(sigma=sigma)
    r = np.linspace(0.0, 3.0, 17)
    assert np.array_equal(a.eval(r), b.eval(r))
    with pytest.raises(ValueError):
        kernels.gaussian()
    with pytest.raises(ValueError):
        kernels.gaussian(sigma=1.0, eta=1.0)


def test_gaussian_width_halving_identity():
    # phi_sigma(r)^2 = phi_{sigma/sqrt(2)}(r)
    k1 = kernels.gaussian(sigma=0.8)
    k2 = kernels.gaussian(sigma=0.8 / math.sqrt(2.0))
    r = np.linspace(0.0, 2.0, 9)
    assert np.allclose(k1.eval(r) ** 2, k2.eval(r), rtol=1e-14)


def test_global_profiles_at_zero():
    assert kernels.gaussian(sigma=1.0).phi0 == 1.0
    assert kernels.inverse_multiquadric(1.0).phi0 == 1.0
    assert config.from_config({"family": "matern-c0", "eta": 1.0}).phi0 == 1.0
    assert kernels.matern_c2(1.0).phi0 == 1.0
    # the C^4 profile is not normalized at the origin
    assert kernels.matern_c4(1.0).phi0 == 3.0


def test_matern_c4_value():
    """exp(-w)(3 + 3w + w^2) at w = eta r."""
    k = kernels.matern_c4(2.0)
    r = 0.75
    w = 2.0 * r
    assert np.isclose(k.eval(r), math.exp(-w) * (3.0 + 3.0 * w + w * w), rtol=1e-15)


def test_wendland_d3_k2_reference_value():
    # (1 - r)^4 (4 r + 1) at r = 0.5 is 0.0625 * 3 = 0.1875
    k = kernels.wendland(3, 2, alpha=1.0)
    assert k.eval(0.5) == 0.1875
    # support scaling: same profile value at r = alpha/2
    k6 = kernels.wendland(3, 2, alpha=0.6)
    assert np.isclose(k6.eval(0.3), 0.1875, rtol=1e-15)


def test_wendland_all_pairs_basic_shape():
    """Every tabulated profile is positive at 0, zero at the boundary, decreasing."""
    grid = np.linspace(0.0, 1.0, 201)
    for (d, k) in kernels.WENDLAND_PAIRS:
        kern = kernels.wendland(d, k, alpha=1.0)
        vals = kern.eval(grid)
        assert vals[0] == kern.phi0 > 0.0
        assert vals[-1] == 0.0
        assert np.all(np.diff(vals) <= 0.0), f"wendland({d},{k}) not decreasing"


def test_wendland_exact_zero_outside_support():
    k = kernels.wendland(3, 4, alpha=0.4)
    r = np.array([0.4, 0.41, 1.0, 25.0])
    vals = k.eval(r)
    assert np.all(vals == 0.0)
    assert k.eval(0.39) > 0.0


def test_wendland_unknown_pair_rejected():
    with pytest.raises(ValueError):
        kernels.wendland(2, 2, alpha=1.0)
    with pytest.raises(ValueError):
        kernels.wendland(3, 3, alpha=1.0)


def test_scalar_and_array_eval_bit_identical():
    """Scalar calls reuse the array code path, so results match exactly."""
    profiles = [
        kernels.gaussian(sigma=0.9),
        kernels.inverse_multiquadric(0.4),
        config.from_config({"family": "matern-c0", "eta": 1.3}),
        kernels.matern_c2(0.6),
        kernels.matern_c4(2.2),
    ] + [kernels.wendland(d, k, alpha=0.7) for (d, k) in kernels.WENDLAND_PAIRS]
    rng = np.random.default_rng(11)
    rs = rng.uniform(0.0, 1.5, size=40)
    for kern in profiles:
        batched = kern.eval(rs)
        for r, want in zip(rs, batched):
            got = kern.eval(float(r))
            assert isinstance(got, float)
            assert got == want, f"{kern.family}: scalar {got!r} != array {want!r}"


def test_negative_radius_rejected():
    k = kernels.gaussian(sigma=1.0)
    with pytest.raises(ValueError):
        k.eval(-0.1)
    with pytest.raises(ValueError):
        k.eval(np.array([0.0, -1e-9]))


def test_cutoff():
    w = np.array([-2.0, -1e-300, 0.0, 0.5])
    out = kernels.cutoff(w)
    assert np.array_equal(out, [0.0, 0.0, 0.0, 0.5])


def test_compactness_flags():
    assert kernels.wendland(1, 0, alpha=2.0).is_compact
    assert not kernels.gaussian(sigma=1.0).is_compact
    assert kernels.wendland(1, 0, alpha=2.0).alpha == 2.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        kernels.gaussian(sigma=0.0)
    with pytest.raises(ValueError):
        kernels.gaussian(eta=-1.0)
    with pytest.raises(ValueError):
        kernels.wendland(3, 2, alpha=0.0)
    with pytest.raises(ValueError):
        kernels.matern_c2(0.0)


@pytest.mark.parametrize("cfg, key, shown", [
    ({"family": "wendland", "d": 3.9, "k": 2, "alpha": 0.7}, "d", "an integer, got 3.9"),
    ({"family": "wendland", "d": 3, "k": 2.5, "alpha": 0.7}, "k", "an integer, got 2.5"),
    ({"family": "wendland", "d": True, "k": 2, "alpha": 0.7}, "d", "an integer, got True"),
    ({"family": "wendland", "d": 3, "k": 2, "alpha": "0.7"}, "alpha", "a number, got '0.7'"),
    ({"family": "gaussian", "sigma": True}, "sigma", "a number, got True"),
    ({"family": "gaussian", "sigma": "a"}, "sigma", "a number, got 'a'"),
    ({"family": "matern-c2", "eta": [2.0]}, "eta", "a number, got [2.0]"),
], ids=["fractional d", "fractional k", "bool d", "text alpha", "bool sigma", "text sigma",
        "list eta"])
def test_a_kernel_value_of_the_wrong_type_is_refused_by_its_path(cfg, key, shown):
    """Neither truncated (d 3.9 would run as 3) nor read as a number (True as 1)."""
    for call in (config.with_defaults, config.from_config):
        with pytest.raises(ValueError) as info:
            call(cfg)
        assert str(info.value) == f"config key 'kernel.{key}' must be {shown}"


def test_wendland_does_not_truncate_its_profile():
    with pytest.raises(ValueError, match=r"unsupported wendland profile \(d=3.9, k=2\)"):
        kernels.wendland(3.9, 2, alpha=0.7)


def test_with_defaults_fills_only_a_family_that_sets_none_of_its_keys():
    assert config.with_defaults({"family": "gaussian"}) == {"family": "gaussian", "sigma": 0.4}
    assert config.from_config({"family": "gaussian"}).sigma == 0.4
    for cfg in ({"family": "gaussian", "eta": 2.0}, {"family": "matern-c2", "eta": 2.0},
                {"family": "wendland", "d": 3, "k": 2, "alpha": 0.5}, {"family": "nope", "x": 1}):
        assert config.with_defaults(cfg) == cfg
    with pytest.raises(ValueError, match="'matern-c4' reads no key 'sigma'; it reads 'eta'$"):
        config.from_config({"family": "matern-c4", "eta": 1.0, "sigma": 0.4})
    with pytest.raises(ValueError, match="wendland config needs 'alpha'$"):
        config.from_config({"family": "wendland", "d": 3, "k": 2})


def test_from_config_round_trips():
    k = config.from_config({"family": "gaussian", "sigma": 0.5})
    assert k.family == "gaussian" and k.sigma == 0.5
    k = config.from_config({"family": "gaussian", "eta": 2.0})
    assert np.isclose(k.sigma, math.sqrt(1.0 / 8.0))
    k = config.from_config({"family": "wendland", "d": 3, "k": 6, "alpha": 0.9})
    assert (k.d, k.k, k.alpha) == (3, 6, 0.9)
    k = config.from_config({"family": "matern-c4", "eta": 1.5})
    assert k.phi0 == 3.0
    with pytest.raises(ValueError):
        config.from_config({"sigma": 0.5})
    for bad in ({"family": "nope", "eta": 1.0}, {"family": "multiquadric", "eta": 1.0}):
        with pytest.raises(ValueError, match=rf"family '{bad['family']}'; choose from .*'gaussian'"):
            config.from_config(bad)
        with pytest.raises(ValueError, match=rf"family '{bad['family']}'; choose from .*'wendland'"):
            kernels.Kernel(bad["family"], eta=1.0)
    with pytest.raises(ValueError):
        config.from_config({"family": "wendland", "d": 3, "k": 2})
