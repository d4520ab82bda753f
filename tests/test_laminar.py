import numpy as np
import pytest

from conftest import make_physics
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave.errors import (DomainError, NoMinimumError,
                               UndefinedQuantityError)


def test_epsilon0_constant_density(t0, grid128):
    # only the 8 g |p0| rho(0) entry survives: 8^(2/3) = 4
    assert lm.epsilon0(t0, grid128) == pytest.approx(4.0)


def test_epsilon0_no_gravity(grid128):
    phys = make_physics(g=0.0)
    assert lm.epsilon0(phys, grid128) == pytest.approx(0.0)


def test_epsilon0_stratified(grid128):
    phys = make_physics(rho_coeffs=(1.0, -0.1))
    entries = max(0.2 * np.e, 0.2 ** 3, 0.4 ** 3, 8.0)
    assert lm.epsilon0(phys, grid128) == pytest.approx(entries ** (2 / 3))


def test_lambda_floor_homogeneous(t0, grid128):
    assert lm.lambda_floor(t0, grid128) == pytest.approx(1e-6)


def test_lambda_floor_with_bernoulli(grid128):
    phys = make_physics(beta_coeffs=(1.0,))
    assert lm.lambda_floor(phys, grid128) == pytest.approx(2.0 + 1e-6)


def test_lambda_floor_stratified(grid128):
    phys = make_physics(rho_coeffs=(1.0, -0.1))
    assert lm.lambda_floor(phys, grid128) == pytest.approx(4.0)


def test_solve_laminar_t0_closed_form(t0, grid128):
    flow = lm.solve_laminar(t0, 4.0, grid128)
    p = grid128.nodes
    assert np.max(np.abs(flow.H - (p + 1.0) / 2.0)) < 1e-13
    assert flow.H[-1] == pytest.approx(0.5)
    assert flow.H[0] == 0.0
    assert flow.Q == pytest.approx(5.0)
    assert flow.iterations == 1          # homogeneous: one pass exact


def test_solve_laminar_pure_capillary(grid128):
    phys = make_physics(g=0.0)
    flow = lm.solve_laminar(phys, 4.0, grid128)
    p = grid128.nodes
    assert np.max(np.abs(flow.H - (p + 1.0) / 2.0)) < 1e-13
    assert flow.Q == pytest.approx(4.0)  # Q = lambda when g = 0


def test_solve_laminar_below_floor_raises(t0, grid128):
    with pytest.raises(DomainError):
        lm.solve_laminar(t0, 0.0, grid128)


def test_solve_laminar_stratified_self_consistency(grid128):
    phys = make_physics(rho_coeffs=(1.0, -0.1))
    flow = lm.solve_laminar(phys, 5.0, grid128)
    assert flow.converged
    assert flow.Hp[-1] == pytest.approx(5.0 ** -0.5, abs=1e-12)
    assert np.max(np.abs(flow.Hp - (5.0 + flow.G) ** -0.5)) < 1e-12
    # cross-check against the halved grid
    flow2 = lm.solve_laminar(phys, 5.0, pr.PGrid(-1.0, 256))
    assert abs(flow.H[-1] - flow2.H[-1]) < 1e-8


def test_h_refinement_order(grid64):
    phys = make_physics(rho_coeffs=(1.0, -0.1), beta_coeffs=(0.5, 0.3))
    vals = []
    for n in (32, 64, 128):
        flow = lm.solve_laminar(phys, 6.0, pr.PGrid(-1.0, n))
        vals.append(flow.H[-1])
    e1, e2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
    assert np.log2(e1 / e2) >= 2.0


def test_q_of_lambda_examples(t0, grid128):
    # Q = lambda + 2 g rho(0) H(0)
    assert lm.solve_laminar(t0, 4.0, grid128).Q == pytest.approx(5.0)
    assert lm.solve_laminar(t0, 1.0, grid128).Q == pytest.approx(3.0)
    g0 = make_physics(g=0.0)
    assert lm.solve_laminar(g0, 2.5, grid128).Q == pytest.approx(2.5)


def test_lambda_derivatives_t0(t0, grid128):
    flow = lm.solve_laminar(t0, 4.0, grid128)
    Ydot, Gdot, Qdot = flow.Ydot, flow.Gdot, flow.Qdot
    assert np.max(np.abs(Gdot)) == 0.0
    assert Ydot[0] == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert Qdot == pytest.approx(0.875, abs=1e-12)
    # Q is minimized at lambda_0 = 1
    assert lm.solve_laminar(t0, 1.0, grid128).Qdot == pytest.approx(0.0, abs=1e-12)


def test_gdot_bounds_stratified(grid128):
    phys = make_physics(rho_coeffs=(1.0, -0.1))
    flow = lm.solve_laminar(phys, 5.0, grid128)
    assert np.all(flow.Gdot <= 1e-15)
    assert np.all(flow.Gdot >= -0.5)
    assert np.all(1.0 + flow.Gdot >= 0.5)


def test_qdot_profile_constant_density(t0, grid128):
    # Qdot = 1 - lambda^{-3/2} exactly for T0, increasing toward 1
    lams = np.linspace(1.2, 8.0, 8)
    qdots = [lm.solve_laminar(t0, lam, grid128).Qdot for lam in lams]
    assert np.allclose(qdots, 1.0 - lams ** -1.5, atol=1e-11)
    assert np.all(np.diff(qdots) > 0)
    assert np.all(np.array(qdots) < 1.0)


def test_q_convexity_sampled(grid64):
    phys = make_physics(rho_coeffs=(1.0, -0.05))
    lams = np.linspace(0.7, 4.0, 12)
    qs = np.array([lm.solve_laminar(phys, lam, grid64,
                                    enforce_floor=False).Q for lam in lams])
    second = qs[:-2] - 2 * qs[1:-1] + qs[2:]
    assert np.all(second >= -1e-10)


def test_find_lambda0(t0, grid128):
    assert lm.find_lambda0(t0, grid128) == pytest.approx(1.0, abs=1e-9)
    g2 = make_physics(g=2.0)
    assert lm.find_lambda0(g2, grid128) == pytest.approx(2 ** (2 / 3), abs=1e-9)
    with pytest.raises(NoMinimumError):
        lm.find_lambda0(make_physics(g=0.0), grid128)


def test_find_lambda_c(t0, grid128):
    assert lm.find_lambda_c(t0, grid128) == pytest.approx(1.0, abs=1e-8)
    g2 = make_physics(g=2.0)
    assert lm.find_lambda_c(g2, grid128) == pytest.approx(2 ** (2 / 3), abs=1e-8)
    with pytest.raises(UndefinedQuantityError):
        lm.find_lambda_c(make_physics(g=0.0), grid128)


def test_lambda_c_right_of_lambda0_stratified(grid64):
    phys = make_physics(rho_coeffs=(1.0, -0.1))
    lam0 = lm.find_lambda0(phys, grid64)
    lam_c = lm.find_lambda_c(phys, grid64)
    assert lam_c >= lam0


def test_sigma_c(t0, grid128):
    assert lm.sigma_c(t0, grid128) == pytest.approx(1.0 / 3.0, abs=1e-10)
    wide = make_physics(p0=-2.0)
    assert lm.sigma_c(wide, pr.PGrid(-2.0, 128)) == pytest.approx(
        (1.0 / 3.0) * 2.0 ** (4.0 / 3.0), abs=1e-9)
    with pytest.raises(UndefinedQuantityError):
        lm.sigma_c(make_physics(g=0.0), grid128)


def test_size_condition(t0, grid128):
    big = make_physics(sigma=10.0)
    ok, margin = lm.check_size_condition(big, grid128)
    assert ok and margin > 0
    zero = make_physics(sigma=0.0)
    ok0, margin0 = lm.check_size_condition(zero, grid128)
    # direct quadrature: (1 + 0) * 1 - int{(2e-6)^{3/2} + (p+1)^2 sqrt(2e-6)}
    shifted = 2e-6
    expected = 1.0 - (shifted ** 1.5 + np.sqrt(shifted) / 3.0)
    assert margin0 == pytest.approx(expected, abs=1e-9)
    assert ok0 == (expected > 0)
    thin = make_physics(p0=-1e-3)
    ok_thin, _ = lm.check_size_condition(thin, pr.PGrid(-1e-3, 64))
    assert ok_thin


def test_flow_csv_shape(t0, grid64):
    flow = lm.solve_laminar(t0, 2.0, grid64)
    text = lm.flow_to_csv(flow)
    lines = text.strip().split("\n")
    assert lines[0] == "p,H,Hp,G,Ydot,Gdot"
    assert len(lines) == grid64.N_p + 2
    assert len(lines[1].split(",")) == 6
