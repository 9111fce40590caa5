import pytest

from fracpn.layer import solve_corrector_psi, solve_layer
from reference import standard_potential


@pytest.fixture(scope="session")
def W_std():
    return standard_potential()


@pytest.fixture(scope="session")
def layer_half(W_std):
    """s = 1/2 profile on [-20, 20]; the closed-form comparison case."""
    return solve_layer(0.5, W_std, R_dom=20.0, n=2048)


@pytest.fixture(scope="session")
def layer_s075(W_std):
    return solve_layer(0.75, W_std, R_dom=40.0, n=4096)


@pytest.fixture(scope="session")
def layer_s03(W_std):
    return solve_layer(0.3, W_std, R_dom=40.0, n=4096)


@pytest.fixture(scope="session")
def psi_s075(layer_s075):
    return solve_corrector_psi(layer_s075, 1.0)


@pytest.fixture(scope="session")
def psi_s03(layer_s03):
    return solve_corrector_psi(layer_s03, 1.0)
