import gc
import weakref

import numpy as np
import pytest

from conftest import make_physics
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp
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


def test_given_data_cache_ignores_sigma(t0, grid64):
    # nothing the per-grid data holds reads sigma: a sigma sweep builds
    # B, B_min and the profile samples once
    lm._given_data.cache_clear()
    sp.lambda_star_of_sigma(t0, grid64, (0.5, 1.0, 2.0))
    assert lm._given_data.cache_info().misses == 1


# stratified: a homogeneous floor reads neither scalar
_FLOOR_RHO = {
    "linear": pr.ProfileFn.poly((1.0, -0.1), -1.0, 0.0),
    "quadratic": pr.ProfileFn.poly((1.0, -0.1, -0.04), -1.0, 0.0),
    "table": pr.ProfileFn.table([-1.0, -0.5, 0.0], [1.15, 1.06, 1.0]),
}


@pytest.mark.parametrize("rho", sorted(_FLOOR_RHO))
@pytest.mark.parametrize("n_p", [64, 512])
def test_lambda_floor_matches_uncached_scalars(rho, n_p, monkeypatch):
    phys = pr.Physics(g=1.0, c=1.0, p0=-1.0, sigma=10.0, rho=_FLOOR_RHO[rho],
                      beta=pr.ProfileFn.poly((0.0, 0.2), 0.0, 1.0))
    grid = pr.PGrid(-1.0, n_p)
    cached = lm.lambda_floor(phys, grid)
    with monkeypatch.context() as patch:
        # a second floor samples no profile
        def forbidden(*args, **kwargs):
            raise AssertionError("profile sampled again")
        patch.setattr(pr.ProfileFn, "eval", forbidden)
        patch.setattr(pr.ProfileFn, "deriv", forbidden)
        assert lm.lambda_floor(phys, grid) == cached
    # rho(0) and max |rho_p| sampled through the profile on every read
    monkeypatch.setattr(pr.Physics, "rho0",
                        lambda self: float(self.rho.eval(0.0)))
    monkeypatch.setattr(pr.Physics, "rho_p_sup", lambda self, grid: float(
        np.max(np.abs(self.rho.deriv(grid.nodes)))))
    assert lm.lambda_floor(phys, grid) == cached


@pytest.mark.parametrize("beta", [(0.0,), (0.0, 0.2)])
def test_homogeneous_solve_makes_one_pass(beta, monkeypatch):
    # the pass after the loop recomputed Hp and H from the same G
    phys = make_physics(beta_coeffs=beta)
    grid = pr.PGrid(-1.0, 64)
    calls = []

    def counted(*args):
        calls.append(args)
        return pr.cumquad_from_left(*args)

    monkeypatch.setattr(lm, "cumquad_from_left", counted)
    flow = lm.solve_laminar(phys, 3.0, grid)
    assert len(calls) == 1 and flow.iterations == 1
    given = lm._given_data(phys.rho, phys.beta, grid)
    assert np.array_equal(flow.G, given.twoB)
    Hp = (3.0 + given.twoB) ** -0.5
    assert np.array_equal(flow.Hp, Hp)
    assert np.array_equal(flow.H, pr.cumquad_from_left(grid, Hp))


# The threshold route before the shared lambda-root search, frozen as the
# reference for it: a doubling bracket from just above the existence floor,
# then bisection on the increasing map down to relative width 1e-12
# (lambda_0) or 1e-10 (lambda_c).  For constant rho, lambda_c was the
# Simpson root of int H_p^3 dp = 1 / (g rho(0)).
_LAMBDA0_WIDTH = 1e-12
_LAMBDA_C_WIDTH = 1e-10


def _expand_bracket(f, lo):
    if f(lo) > 0:
        return None
    hi = max(2.0 * abs(lo), lo + 1.0)
    while hi <= lm.LAMBDA_CAP:
        if f(hi) > 0:
            return lo, hi
        lo = hi
        hi *= 2.0
    return None


def _bisect(f, a, b, tol):
    while b - a > tol * max(1.0, abs(a)):
        mid = 0.5 * (a + b)
        if f(mid) >= 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _bisection_route(physics, grid):
    """(lambda_0, lambda_c) as the bracket-and-bisect route found them."""
    def flow(lam):
        return lm.solve_laminar(physics, lam, grid, enforce_floor=False)

    def qdot(lam):
        return flow(lam).Qdot

    floor = lm.existence_floor(physics, grid)
    lam0 = _bisect(qdot, *_expand_bracket(
        qdot, floor + 1e-6 * max(1.0, abs(floor))), _LAMBDA0_WIDTH)
    if lm._given_data(physics.rho, physics.beta, grid).homogeneous:
        def fvalue(lam):
            return (1.0 / (physics.g * physics.rho0())
                    - pr.quad(grid, flow(lam).Hp ** 3))
    else:
        target = 1.0 / (physics.g * physics.rho0() + physics.g
                        * physics.rho_p_sup(grid) * abs(physics.p0))

        def fvalue(lam):
            return target - 4.0 * flow(lam).Ydot[0]

    if fvalue(lam0) >= 0:
        return lam0, lam0
    return lam0, _bisect(fvalue, *_expand_bracket(fvalue, lam0),
                         _LAMBDA_C_WIDTH)


def _sigma_c_at(physics, grid, lam_c, monkeypatch):
    """sigma_c with the flow taken at lam_c."""
    with monkeypatch.context() as patch:
        patch.setattr(lm, "find_lambda_c", lambda physics, grid: lam_c)
        return lm.sigma_c(physics, grid)


_ROUTE_RHO = {"constant": pr.ProfileFn.poly((1.0,), -1.0, 0.0), **_FLOOR_RHO}


def _route_physics(rho, beta):
    return pr.Physics(g=1.0, c=1.0, p0=-1.0, sigma=1.0, rho=_ROUTE_RHO[rho],
                      beta=pr.ProfileFn.poly(beta, 0.0, 1.0))


@pytest.mark.parametrize("beta", [(0.0,), (0.0, 0.2)])
@pytest.mark.parametrize("rho", sorted(_ROUTE_RHO))
def test_thresholds_match_bisection_route(rho, beta, monkeypatch):
    physics, grid = _route_physics(rho, beta), pr.PGrid(-1.0, 64)
    if rho == "constant" and beta != (0.0,):
        # the Simpson and the cumulative rule differ on a varying H_p;
        # see test_constant_rho_lambda_c_is_lambda0
        grid = pr.PGrid(-1.0, 256)
    old0, old_c = _bisection_route(physics, grid)
    lam0 = lm.find_lambda0(physics, grid)
    lam_c = lm.find_lambda_c(physics, grid)
    assert abs(lam0 - old0) <= _LAMBDA0_WIDTH * max(1.0, abs(old0))
    width = _LAMBDA_C_WIDTH * max(1.0, abs(old_c))
    assert abs(lam_c - old_c) <= width
    # sigma_c within what the bisection's last bracket leaves open
    spread = abs(_sigma_c_at(physics, grid, old_c + width, monkeypatch)
                 - _sigma_c_at(physics, grid, old_c - width, monkeypatch))
    assert abs(lm.sigma_c(physics, grid)
               - _sigma_c_at(physics, grid, old_c, monkeypatch)) <= spread


def test_constant_rho_lambda_c_is_lambda0():
    # lambda_c is lambda_0, the root of Qdot = 1 - 2 g rho(0) Ydot(p0),
    # whose Ydot(p0) the fourth-order cumulative rule integrates; the old
    # route took Simpson's root of the same integral, which differs from
    # it at O(h^4) on a varying H_p (beta = 0.2 s here)
    physics = _route_physics("constant", (0.0, 0.2))
    gaps = []
    for n_p in (64, 128):
        grid = pr.PGrid(-1.0, n_p)
        lam0 = lm.find_lambda0(physics, grid)
        assert lm.find_lambda_c(physics, grid) == lam0
        gaps.append(abs(lam0 - _bisection_route(physics, grid)[1]))
    assert gaps[0] < 1e-8
    assert np.log2(gaps[0] / gaps[1]) >= 3.5


@pytest.mark.parametrize("rho_coeffs, n_p", [((1.0,), 128),
                                             ((1.0, -0.1), 64)])
def test_threshold_searches_count_solves(rho_coeffs, n_p, monkeypatch):
    # the bracket-and-bisect route took 42 laminar solves for lambda_0 and
    # 78 for the stratified lambda_c
    physics, grid = make_physics(rho_coeffs=rho_coeffs), pr.PGrid(-1.0, n_p)
    calls, solve = [], lm.solve_laminar

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lm, "solve_laminar", counted)
    lm.find_lambda0(physics, grid)
    assert len(calls) <= 16
    calls.clear()
    lm.find_lambda_c(physics, grid)
    assert len(calls) <= 30


# (lambda_0, lambda_c, sigma_c) as float.hex before the search kept its own
# evaluations, with the solves each search made then (13 and 26 for the
# stratified lambda_c, which solved lambda_0 again)
_THRESHOLDS = {
    "constant-128": (((1.0,), 128), 11, 11,
                     ("0x1.0000000000007p+0", "0x1.0000000000007p+0",
                      "0x1.555555555554dp-2")),
    "linear-64": (((1.0, -0.1), 64), 11, 21,
                  ("0x1.e9799d4e96d01p-1", "0x1.a8533378683dbp+0",
                   "0x1.4f88a05a5ea3ap-4")),
}


@pytest.mark.parametrize("case", sorted(_THRESHOLDS))
def test_threshold_searches_solve_each_lambda_once(case, monkeypatch):
    (rho_coeffs, n_p), solves0, solves_c, expected = _THRESHOLDS[case]
    physics, grid = make_physics(rho_coeffs=rho_coeffs), pr.PGrid(-1.0, n_p)
    lams, solve = [], lm.solve_laminar

    def counted(physics, lam, *args, **kwargs):
        lams.append(lam)
        return solve(physics, lam, *args, **kwargs)

    monkeypatch.setattr(lm, "solve_laminar", counted)
    lam0 = lm.find_lambda0(physics, grid)
    assert len(lams) == len(set(lams)) == solves0
    lams.clear()
    lam_c = lm.find_lambda_c(physics, grid)
    assert len(lams) == len(set(lams)) == solves_c
    monkeypatch.undo()
    got = (lam0, lam_c, lm.sigma_c(physics, grid))
    assert tuple(float.fromhex(x) for x in expected) == got


class _Payload:
    """What a search's evaluation carries besides f: weakly referenceable."""


@pytest.mark.parametrize("root, evaluations", [
    (0.3, 6), (lm._first_admissible(1e-6), 1), (5e6, 7)],
    ids=["brent", "first-sample", "no-root"])
def test_smallest_root_keeps_only_the_root_evaluation(root, evaluations):
    # brentq's wrapper of f sits in a reference cycle; with the collector
    # off, whatever the search still holds after it returns stays alive
    lams, refs = [], []

    def evaluate(lam):
        payload = _Payload()
        lams.append(lam)
        refs.append(weakref.ref(payload))
        return lam - root, payload

    enabled = gc.isenabled()
    gc.disable()
    try:
        found = lm._smallest_root(evaluate, 1e-6, lm.LAMBDA_CAP)
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert len(set(lams)) == len(lams) == evaluations
    if root > lm.LAMBDA_CAP:                # no sign change: nothing kept
        assert found is None and alive == []
    else:
        assert found[1][0] == found[0] - root
        assert alive == [found[1][1]]
