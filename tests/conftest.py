import json

import numpy as np
import pytest

from levyou import (
    CumulantKind,
    CumulantVector,
    DriverSpec,
    ModelParams,
    driver_cumulants,
    stationary_cumulants,
)


@pytest.fixture(scope="session")
def gamma_ou():
    """Exponential-jump model with skewed stationary law (shifted gamma)."""
    params = ModelParams(lam=1.0, gamma=0.0, beta=1.0, rho=0.5)
    driver = DriverSpec.cpexp(b=1.0, c=1.0, alpha=1.0)
    return params, driver


@pytest.fixture(scope="session")
def gamma_ou_kappa_f(gamma_ou):
    params, driver = gamma_ou
    return stationary_cumulants(driver_cumulants(driver, 8), params.lam)


@pytest.fixture(scope="session")
def gaussian_model():
    params = ModelParams(lam=0.8, gamma=0.2, beta=1.2, rho=0.4)
    driver = DriverSpec.gaussian(b=0.5, C=2.0)
    return params, driver


@pytest.fixture()
def k2_of_40(monkeypatch):
    """Make validation report k_2 = 40, far outside 5 SE of the closed-form
    variance, so its cumulant_match check fails."""
    from levyou import harness

    real = harness._k_from_sums

    def patched(rows, r_max):
        ks = real(rows, r_max)
        ks.values[1] = 40.0
        return ks

    monkeypatch.setattr(harness, "_k_from_sums", patched)


@pytest.fixture()
def rng():
    return np.random.default_rng(20250809)


def random_stationary_cumulants(rng, n=6, lo=0.2, hi=3.0):
    return CumulantVector(CumulantKind.STATIONARY,
                          tuple(rng.uniform(lo, hi) for _ in range(n)))


@pytest.fixture()
def write_config(tmp_path):
    """Write a config dict to a temp JSON file and return its path."""

    def _write(cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write


def base_config(**overrides):
    """Small, fast experiment config used by CLI and harness tests."""
    cfg = {
        "params": {"lam": 1.0, "gamma": 0.0, "beta": 1.0, "rho": 0.5},
        "driver": {"variant": "cpexp", "b": 1.0, "c": 1.0, "alpha": 1.0},
        "T_grid": [5.0],
        "p_orders": [2, 3],
        "n_samples": 2000,
        "seed": 99,
        "test_points": [0.0],
        "workers": 1,
    }
    cfg.update(overrides)
    return cfg
