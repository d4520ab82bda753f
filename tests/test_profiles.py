import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from stratiwave import profiles as pr
from stratiwave.errors import DomainError


def test_poly_eval_constant():
    f = pr.ProfileFn.poly([1.0], -1.0, 0.0)
    assert f.eval(-0.5) == 1.0


def test_poly_eval_identity():
    f = pr.ProfileFn.poly([0.0, 1.0], -1.0, 0.0)
    assert f.eval(-0.5) == -0.5


def test_table_eval_node_value():
    f = pr.ProfileFn.table([-1.0, 0.0], [2.0, 3.0])
    assert f.eval(-1.0) == pytest.approx(2.0)


# a two-node table, the three-node rho of the benchmark, and rows of
# random values on uneven nodes: monotone, with extrema, with flat runs
def _tables():
    rng = np.random.default_rng(30)
    yield [-1.0, 0.0], [2.0, 3.0]
    yield [-1.0, -0.5, 0.0], [1.15, 1.06, 1.0]
    for n in (3, 4, 9, 33, 513):
        x = np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 0.0, n - 2)),
                            [0.0]))
        yield x, rng.standard_normal(n)
        yield x, np.cumsum(rng.uniform(0.0, 1.0, n))[::-1]
        yield x, np.round(rng.standard_normal(n))


@pytest.mark.parametrize("table", list(_tables()))
def test_table_matches_scipy_pchip(table):
    x, y = table
    f = pr.ProfileFn.table(x, y)
    ref = PchipInterpolator(x, y, extrapolate=True)
    slack = 0.5e-12           # inside the evaluation slack: extrapolated
    grid = np.linspace(-1.0 - slack, slack, 257)
    points = [-1.0 - slack, -0.3, 0.0, slack, np.asarray(-0.7), np.array(x),
              grid, grid.reshape(1, -1), grid[:-1].reshape(16, 16)]
    for p in points:
        got, want = f.eval(p), ref(p)
        assert np.shape(got) == np.shape(p) and np.array_equal(got, want)
        got, want = f.deriv(p), ref.derivative()(p)
        assert np.shape(got) == np.shape(p) and np.array_equal(got, want)
        if np.ndim(p) == 0:
            assert type(f.eval(p)) is float and type(f.deriv(p)) is float


@pytest.mark.parametrize("n_p", [64, 512])
@pytest.mark.parametrize("n_beta", [2, 4, 33])
def test_build_B_matches_scipy_antiderivative(n_p, n_beta):
    # p0 = -0.7: the grid steps are not powers of two, so the products
    # of s round as they do in scipy only if they are formed as there
    rng = np.random.default_rng(n_p + n_beta)
    grid = pr.PGrid(-0.7, n_p)
    p = grid.nodes
    for values in (rng.standard_normal(n_beta), np.zeros(n_beta)):
        beta = pr.ProfileFn.table(np.linspace(0.0, 0.7, n_beta), values)
        anti = PchipInterpolator(p, beta.eval(-p),
                                 extrapolate=True).antiderivative()
        want = anti(p) - anti(0.0)
        B = pr.build_B(beta, grid)
        assert np.array_equal(B.values, want)
        assert np.array_equal(np.signbit(B.values), np.signbit(want))
        assert B.nodes == tuple(p)


def test_table_must_reach_its_domain_ends():
    # a table short of [lo, hi] by more than the evaluation slack is
    # refused; within the slack it is taken
    for nodes in ([-0.99999, 0.0], [-1.0, -1e-9], [-1.0 - 1e-9, 0.0]):
        with pytest.raises(DomainError):
            pr.ProfileFn.table(nodes, [1.2, 1.0], -1.0, 0.0)
    f = pr.ProfileFn.table([-1.0 + 5e-13, -5e-13], [1.2, 1.0], -1.0, 0.0)
    assert f.eval(-1.0) == pytest.approx(1.2)
    assert f.eval(0.0) == pytest.approx(1.0)


def test_eval_out_of_domain_raises():
    f = pr.ProfileFn.poly([1.0], -1.0, 0.0)
    with pytest.raises(DomainError):
        f.eval(0.5)
    with pytest.raises(DomainError):
        f.eval(-1.5)


def test_deriv_linear_and_constant():
    assert pr.ProfileFn.poly([0.0, 1.0], -1.0, 0.0).deriv(-0.3) == 1.0
    assert pr.ProfileFn.poly([1.0], -1.0, 0.0).deriv(-0.3) == 0.0


def test_deriv_quadratic():
    f = pr.ProfileFn.poly([0.0, 0.0, 1.0], -2.0, 0.0)
    assert f.deriv(-1.0) == pytest.approx(-2.0)


def test_table_monotone_preserved():
    p = np.linspace(-1.0, 0.0, 9)
    f = pr.ProfileFn.table(p, 1.0 - p / 10.0)
    fine = np.linspace(-1.0, 0.0, 301)
    assert np.all(np.diff(f.eval(fine)) < 0)


def test_build_B_zero_beta():
    grid = pr.PGrid(-1.0, 16)
    beta = pr.ProfileFn.poly([0.0], 0.0, 1.0)
    B = pr.build_B(beta, grid)
    assert np.allclose(B.eval(grid.nodes), 0.0)
    assert pr.b_min(B) == pytest.approx(0.0)


def test_build_B_constant_beta():
    grid = pr.PGrid(-1.0, 16)
    beta = pr.ProfileFn.poly([1.0], 0.0, 1.0)
    B = pr.build_B(beta, grid)
    assert np.allclose(B.eval(grid.nodes), grid.nodes, atol=1e-14)
    assert pr.b_min(B) == pytest.approx(-1.0)


def test_build_B_linear_beta():
    # beta(s) = s gives B(p) = -p^2/2 and B_min = -p0^2/2
    grid = pr.PGrid(-2.0, 32)
    beta = pr.ProfileFn.poly([0.0, 1.0], 0.0, 2.0)
    B = pr.build_B(beta, grid)
    assert np.allclose(B.eval(grid.nodes), -grid.nodes ** 2 / 2.0, atol=1e-14)
    assert pr.b_min(B) == pytest.approx(-2.0)


def test_build_B_recovers_beta_by_differencing():
    grid = pr.PGrid(-1.0, 64)
    beta = pr.ProfileFn.table(np.linspace(0, 1, 33),
                              np.sin(np.linspace(0, 1, 33)))
    B = pr.build_B(beta, grid)
    p = grid.nodes[1:-1]
    h = grid.h
    dB = (B.eval(p + h) - B.eval(p - h)) / (2 * h)
    assert np.max(np.abs(dB - beta.eval(-p))) < 5.0 / grid.N_p ** 2


def test_quad_trivial_cases():
    grid = pr.PGrid(-1.0, 16)
    p = grid.nodes
    assert pr.quad(grid, np.ones_like(p)) == pytest.approx(1.0)
    assert pr.quad(grid, p) == pytest.approx(-0.5)
    assert pr.quad(grid, p ** 2) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_quad_convergence_order_on_sin():
    errs = []
    for n in (16, 32, 64):
        grid = pr.PGrid(-1.0, n)
        exact = np.cos(1.0) - 1.0       # int_{-1}^{0} sin(p) dp
        errs.append(abs(pr.quad(grid, np.sin(grid.nodes)) - exact))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 3.8


def test_cumquad_matches_quad_and_antiderivative():
    grid = pr.PGrid(-1.0, 64)
    p = grid.nodes
    F = pr.cumquad_from_left(grid, np.exp(p))
    assert np.max(np.abs(F - (np.exp(p) - np.exp(-1.0)))) < 1e-9
    G = pr.cumquad_to_zero(grid, np.exp(p))
    assert np.max(np.abs(G - (1.0 - np.exp(p)))) < 1e-9


def test_pgrid_validation():
    with pytest.raises(DomainError):
        pr.PGrid(-1.0, 7)
    with pytest.raises(DomainError):
        pr.PGrid(-1.0, 9)
    with pytest.raises(DomainError):
        pr.PGrid(1.0, 16)


def test_physics_validation():
    rho_bad = pr.ProfileFn.poly([1.0, 1.0], -1.0, 0.0)   # increasing rho
    beta = pr.ProfileFn.poly([0.0], 0.0, 1.0)
    with pytest.raises(DomainError):
        pr.Physics(g=1.0, c=1.0, p0=-1.0, sigma=0.0, rho=rho_bad, beta=beta)
    rho = pr.ProfileFn.poly([1.0], -1.0, 0.0)
    with pytest.raises(DomainError):
        pr.Physics(g=1.0, c=-1.0, p0=-1.0, sigma=0.0, rho=rho, beta=beta)
    with pytest.raises(DomainError):
        pr.Physics(g=1.0, c=1.0, p0=0.5, sigma=0.0, rho=rho, beta=beta)


def _cumquad_from_left_indexed(grid, samples):
    """``cumquad_from_left`` as it stood with ``np.arange`` fancy indices;
    the reference for bit-equality."""
    f = np.asarray(samples, dtype=float)
    h, n = grid.h, grid.N_p
    inc = np.empty(n)
    inc[0] = h / 24.0 * (9*f[0] + 19*f[1] - 5*f[2] + f[3])
    inc[-1] = h / 24.0 * (f[-4] - 5*f[-3] + 19*f[-2] + 9*f[-1])
    i = np.arange(1, n - 1)
    inc[i] = h / 24.0 * (-f[i-1] + 13*f[i] + 13*f[i+1] - f[i+2])
    out = np.zeros(n + 1)
    np.cumsum(inc, out=out[1:])
    return out


@pytest.mark.parametrize("n_p", [8, 10, 64, 512])
def test_cumquad_from_left_matches_indexed(n_p, monkeypatch):
    rng = np.random.default_rng(n_p)
    grid = pr.PGrid(-0.7, n_p)
    for _ in range(5):
        f = rng.standard_normal(n_p + 1) * 10.0 ** rng.uniform(-3, 3)
        want = _cumquad_from_left_indexed(grid, f)
        with monkeypatch.context() as patch:
            def forbidden(*args, **kwargs):
                raise AssertionError("cells indexed by an index array")
            patch.setattr(np, "arange", forbidden)
            got = pr.cumquad_from_left(grid, f)
        assert np.array_equal(got, want)


_SCALAR_PROFILES = {
    "constant": pr.ProfileFn.poly([1.0], -1.0, 0.0),
    "quadratic": pr.ProfileFn.poly([1.0, -0.1, -0.04], -1.0, 0.0),
    "table": pr.ProfileFn.table([-1.0, -0.5, 0.0], [1.15, 1.06, 1.0]),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_PROFILES))
def test_profile_scalars_match_uncached(name, monkeypatch):
    rho = _SCALAR_PROFILES[name]
    beta = pr.ProfileFn.poly([0.0, 0.2], 0.0, 1.0)
    phys = pr.Physics(g=1.0, c=1.0, p0=-1.0, sigma=1.0, rho=rho, beta=beta)
    grids = [pr.PGrid(-1.0, n_p) for n_p in (64, 512)]
    want = [(float(rho.eval(0.0)),
             float(np.max(np.abs(rho.deriv(grid.nodes))))) for grid in grids]
    for grid, (rho0, sup) in zip(grids, want):
        assert phys.rho0() == rho0
        assert phys.rho_p_sup(grid) == sup
    with monkeypatch.context() as patch:
        # sampled once per profile (and grid): a second read samples nothing
        def forbidden(*args, **kwargs):
            raise AssertionError("profile sampled again")
        patch.setattr(pr.ProfileFn, "eval", forbidden)
        patch.setattr(pr.ProfileFn, "deriv", forbidden)
        for grid, (rho0, sup) in zip(grids, want):
            assert phys.rho0() == rho0
            assert phys.rho_p_sup(grid) == sup
    # an equal profile built anew reads the same values
    twin = pr.Physics(g=1.0, c=1.0, p0=-1.0, sigma=2.0, rho=(
        pr.ProfileFn.table(rho.nodes, rho.values) if rho.kind == "table"
        else pr.ProfileFn.poly(rho.coeffs, rho.lo, rho.hi)), beta=beta)
    assert twin.rho0() == phys.rho0()
