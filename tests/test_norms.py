import numpy as np
import pytest
import scipy.linalg

from h32fem import cli, experiments, norms
from h32fem.assembly import (
    FeFunction,
    assemble_grams,
    bulk_quad_data,
    eval_on_elements,
    grams_of,
    nodal_interp_bulk,
    trace,
)
from h32fem.meshing import _spd_factor, build_square_mesh, disk_mesh
from h32fem.norms import (
    QUAD_TOL,
    dense_eigenpairs,
    dual_neg_half_norm,
    dual_neg_half_norms,
    dual_norm_from_load,
    gradient_pairing_load,
    h1_norm,
    h_s_norm,
    hhat_threehalf_norm,
    hhat_threehalf_norms,
    inv_sqrt_quadrature,
    l2_norm,
    spectral_decomp,
    spectral_power_norm,
    vec_dual_half_norm,
)


@pytest.fixture(scope="module")
def setup(disk4k1):
    g = grams_of(disk4k1)
    return disk4k1, g, spectral_decomp(g, "all"), spectral_decomp(g, "interior")


def test_eigen_structure(setup):
    m, g, sb, sbi = setup
    assert len(sb) == m.n_nodes
    assert len(sbi) == len(m.interior_node_ids)
    lam, V = dense_eigenpairs(sb)
    assert lam.min() >= 1.0 - 1e-10
    assert dense_eigenpairs(sbi)[0].min() >= 1.0 - 1e-10
    M = sb.M.toarray()
    assert np.abs(V.T @ M @ V - np.eye(len(sb))).max() < 1e-10


def test_constant_has_unit_eigenvalue(setup):
    m, g, sb, _ = setup
    # the constant vector is the eigenvector with lambda = 1
    assert abs(dense_eigenpairs(sb)[0][0] - 1.0) < 1e-10


def test_endpoint_exactness(setup, rng):
    # the L2 and H1 forms, and h_s_norm at s = 0 and 1, against the dense
    # oracle's sqrt(sum lambda^s y^2), y = V^T M u
    m, g, sb, _ = setup
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    lam, V = dense_eigenpairs(sb)
    y = V.T @ (sb.M @ u.coeffs)
    for s, form in ((0.0, l2_norm), (1.0, h1_norm)):
        oracle = np.sqrt(np.sum(lam**s * y**2))
        for value in (form(u), h_s_norm(u, s)):
            assert abs(value - oracle) <= 1e-10 * oracle


def test_zero_and_homogeneity(setup, rng):
    m, g, sb, _ = setup
    zero = FeFunction(m, np.zeros(m.n_nodes))
    assert h_s_norm(zero, 0.5) == 0.0
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    n = h_s_norm(u, 0.5)
    assert abs(h_s_norm(u.scaled(-3.25), 0.5) - 3.25 * n) < 1e-12 * max(1, n)


def test_monotonicity_in_s(setup, rng):
    m, g, sb, _ = setup
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    lam, V = dense_eigenpairs(sb)
    y = V.T @ (sb.M @ u.coeffs)
    vals = [np.sqrt(np.sum(lam**s * y**2)) for s in np.linspace(0.0, 1.0, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # the operator's three powers sit on the oracle's curve
    for s in (0.0, 0.5, 1.0):
        assert abs(h_s_norm(u, s) - vals[int(10 * s)]) <= 1e-10 * vals[int(10 * s)]


def test_s_range_validation(setup):
    m, g, sb, _ = setup
    u = FeFunction(m, np.ones(m.n_nodes))
    with pytest.raises(ValueError):
        h_s_norm(u, 1.2)


def test_dual_norm_zero_and_sup_attainment(setup, rng):
    m, g, sb, sbi = setup
    zero = FeFunction(m, np.zeros(m.n_nodes), "bulk0")
    assert dual_neg_half_norm(zero, "interior") == 0.0
    c = rng.normal(size=m.n_nodes)
    c[m.boundary_node_ids] = 0.0
    f = FeFunction(m, c, "bulk0")
    b = (g.M_bulk @ f.coeffs)[sbi.ids]
    d = dual_norm_from_load(b, sbi)
    phi = sbi.apply(b)
    attained = (b @ phi) / spectral_power_norm(phi, 0.5, sbi)
    assert abs(d - attained) <= 1e-8 * max(d, 1e-30)


def test_zero_trace_below_full(setup, rng):
    m, g, sb, sbi = setup
    for _ in range(10):
        c = rng.normal(size=m.n_nodes)
        c[m.boundary_node_ids] = 0.0
        f = FeFunction(m, c, "bulk0")
        zt = dual_neg_half_norm(f, "interior")
        fl = dual_neg_half_norm(f, "all")
        assert zt <= fl + 1e-12


def test_variant_dofset_mismatch(setup):
    # the variant is the test space's DOF set; the surface is no bulk variant
    m, g, sb, sbi = setup
    f = FeFunction(m, np.ones(m.n_nodes))
    zq = np.ones((m.n_elements, len(bulk_quad_data(m)["rule"].weights), 2))
    for norm in (
        lambda: dual_neg_half_norm(f, "surface"),
        lambda: vec_dual_half_norm(zq, m, "surface"),
        lambda: hhat_threehalf_norm(f, "surface"),
    ):
        with pytest.raises(ValueError, match="surface"):
            norm()
    # the interior operator sees only interior test functions
    assert dual_neg_half_norm(f, "interior") < dual_neg_half_norm(f, "all")


def test_vec_dual_constant_field_zero_trace(setup):
    m, g, sb, sbi = setup
    zc = eval_on_elements(FeFunction(m, np.tile([0.7, -1.3], (m.n_nodes, 1))))[0]
    assert vec_dual_half_norm(zc, m, "interior") < 1e-10
    # against the full space the boundary flux survives
    assert vec_dual_half_norm(zc, m, "all") > 1e-3


def test_hhat_norm_of_constant(setup):
    m, g, sb, sbi = setup
    c = 2.5
    u = nodal_interp_bulk(m, lambda p: c * np.ones(len(p)))
    ones_s = np.ones(len(m.boundary_node_ids))
    perimeter = ones_s @ (g.M_surf @ ones_s)
    expected = c * np.sqrt(perimeter)
    assert abs(hhat_threehalf_norm(u) - expected) < 1e-10


def test_discrete_trace_inequality(setup, rng):
    m, g, sb, sbi = setup
    # the 3/2 norm contains the boundary H1 term by construction
    for _ in range(5):
        u = FeFunction(m, rng.normal(size=m.n_nodes))
        tn = h1_norm(trace(u))
        assert tn <= hhat_threehalf_norm(u) * (1 + 1e-12)


def test_boundary_norms(setup):
    m, g, _, _ = setup
    gs = trace(nodal_interp_bulk(m, lambda p: 3.0 * np.ones(len(p))))
    ones_s = np.ones(len(m.boundary_node_ids))
    per = ones_s @ (g.M_surf @ ones_s)
    assert abs(h1_norm(gs) - 3.0 * np.sqrt(per)) < 1e-12
    # the constant is the pencil's lambda = 1 eigenvector, so its H^{1/2}
    # norm is its L2 norm up to the operator's documented relative error
    v0 = l2_norm(gs)
    vh = h_s_norm(gs, 0.5)
    assert abs(vh - v0) <= QUAD_TOL * v0
    with pytest.raises(ValueError):
        h_s_norm(gs, 0.25)


@pytest.mark.parametrize("order", [1, 2])
def test_surface_norms_are_the_surface_forms(order):
    # on a surface function the L2 and H1 norms, and h_s_norm at s = 0 and 1,
    # are the surface mass and stiffness forms, bit for bit
    m = experiments.get_mesh("disk", 4, order)
    g = grams_of(m)
    rng = np.random.default_rng([order, 5])
    gs = trace(FeFunction(m, rng.normal(size=m.n_nodes)))
    t = gs.coeffs
    l2 = float(np.sqrt(t @ (g.M_surf @ t)))
    h1 = float(np.sqrt(t @ (g.M_surf @ t) + t @ (g.A_surf @ t)))
    assert l2_norm(gs) == h_s_norm(gs, 0) == l2
    assert h1_norm(gs) == h_s_norm(gs, 1) == h1


def test_operator_powers_are_only_one_half_and_three_halves(setup, rng):
    # s = 0 and 1 are the forms (l2_norm, h1_norm), not powers of the operator
    m, g, sb, _ = setup
    c = rng.normal(size=m.n_nodes)
    for s in (0, 1):
        with pytest.raises(ValueError, match="l2_norm and h1_norm"):
            spectral_power_norm(c, s, sb)


def test_unknown_pencil_raises_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(norms, "_operator", lambda *args: built.append(args))
    g = assemble_grams(disk_mesh(2, 1))
    with pytest.raises(ValueError, match="unknown dofset 'boundary'"):
        spectral_decomp(g, "boundary")
    assert built == [] and "_cache" not in vars(g)


def test_norm_homogeneity_all_ops(setup, rng):
    m, g, sb, sbi = setup
    alpha = 1.7
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    pairs = [
        (hhat_threehalf_norm(u),
         hhat_threehalf_norm(u.scaled(alpha))),
        (dual_neg_half_norm(u, "all"),
         dual_neg_half_norm(u.scaled(alpha), "all")),
    ]
    for base, scaled in pairs:
        assert abs(scaled - alpha * base) < 1e-12 * max(1.0, base)


@pytest.mark.parametrize("order", [1, 2])
def test_fe_norms_are_the_vector_formulas_on_the_meshs_own_grams(order):
    # each FE-level norm is its vector-level formula on grams_of(u.mesh) and
    # that set's operators, bit for bit; the operators of a coarser mesh,
    # built first, cannot reach it
    spectral_decomp(grams_of(experiments.get_mesh("disk", 2, order)), "interior")
    m = experiments.get_mesh("disk", 4, order)
    g = grams_of(m)
    sb, sbi = spectral_decomp(g, "all"), spectral_decomp(g, "interior")
    rng = np.random.default_rng([order, m.n_nodes])
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    v = FeFunction(m, rng.normal(size=(m.n_nodes, 2)))
    c, vc, t = u.coeffs, v.coeffs, trace(u).coeffs
    # H1 is the sum of the mass and stiffness quadratic forms, per component
    M, A = g.M_bulk, g.A_bulk
    assert l2_norm(u) == float(np.sqrt(c @ (M @ c)))
    assert h1_norm(u) == float(np.sqrt(c @ (M @ c) + c @ (A @ c)))
    assert l2_norm(v) == float(np.sqrt(sum(vc[:, i] @ (M @ vc[:, i]) for i in range(2))))
    h1_v = sum(vc[:, i] @ (F @ vc[:, i]) for i in range(2) for F in (M, A))
    assert h1_norm(v) == float(np.sqrt(h1_v))
    assert h_s_norm(u, 0.0) == l2_norm(u) and h_s_norm(u, 1.0) == h1_norm(u)
    assert h_s_norm(u, 0.5) == spectral_power_norm(c[sb.ids], 0.5, sb)
    assert h_s_norm(trace(u), 0.5) == spectral_power_norm(t, 0.5, spectral_decomp(g, "surface"))
    surf = float(np.sqrt(t @ (g.M_surf @ t) + t @ (g.A_surf @ t)))
    zq = eval_on_elements(v)[0]
    for dofset, op in (("all", sb), ("interior", sbi)):
        assert dual_neg_half_norm(u, dofset) == dual_norm_from_load((g.M_bulk @ c)[op.ids], op)
        assert hhat_threehalf_norm(u, dofset) == dual_norm_from_load((g.A_bulk @ c)[op.ids], op) + surf
        b = gradient_pairing_load(zq, m)[op.ids]
        assert vec_dual_half_norm(zq, m, dofset) == dual_norm_from_load(b, op)
    assert hhat_threehalf_norm(u) == hhat_threehalf_norm(u, "interior")


def _pencils(g):
    return {
        "all": spectral_decomp(g, "all"),
        "interior": spectral_decomp(g, "interior"),
        "surface": spectral_decomp(g, "surface"),
    }


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("pencil", ["all", "interior", "surface"])
def test_operator_matches_dense_oracle(order, pencil):
    g = grams_of(experiments.get_mesh("disk", 4, order))
    sb = _pencils(g)[pencil]
    lam, V = dense_eigenpairs(sb)
    rng = np.random.default_rng([order, len(sb)])
    for _ in range(3):
        b = rng.normal(size=len(sb))
        u = rng.normal(size=len(sb))
        y, c = V.T @ b, V.T @ (sb.M @ u)
        d = dual_norm_from_load(b, sb)
        assert abs(d - np.sqrt(np.sum(y**2 / np.sqrt(lam)))) <= 1e-10 * d
        for s in (0.5, 1.5):
            ref = np.sqrt(np.sum(lam**s * c**2))
            assert abs(spectral_power_norm(u, s, sb) - ref) <= 1e-10 * ref
        phi = sb.apply(b)
        phi_ref = V @ (y / np.sqrt(lam))
        assert np.abs(phi - phi_ref).max() <= 1e-10 * np.abs(phi_ref).max()
        assert abs(d - (b @ phi) / spectral_power_norm(phi, 0.5, sb)) <= 1e-10 * d


# the shift count N at QUAD_TOL per bound; 7.93e4 is the 16-ring P2 pencils'
SHIFT_COUNTS = {1.0: 4, 2.0: 5, 1e2: 10, 1e4: 16, 7.93e4: 19, 1e6: 22}


@pytest.mark.parametrize("bound", SHIFT_COUNTS)
def test_inv_sqrt_quadrature_uniform_error(bound):
    shifts, weights = inv_sqrt_quadrature(bound)
    assert len(shifts) == SHIFT_COUNTS[bound]
    assert shifts.min() > 0.0 and weights.min() > 0.0
    lam = np.geomspace(1.0, bound, 400)
    approx = (weights / (lam[:, None] + shifts)).sum(axis=1)
    assert np.abs(np.sqrt(lam) * approx - 1.0).max() <= QUAD_TOL


# p = 0, the registry's bounds from 289 to 7.93e4, and Lambda = 1e6
ELLIPTIC_BOUNDS = (1.0, 289.0, 4.0e3, 7.93e4, 1e6)


@pytest.mark.parametrize("bound", ELLIPTIC_BOUNDS)
def test_agm_elliptic_functions_match_scipy(bound):
    # scipy.special is the reference here only; the quadrature computes K and
    # sn, cn, dn by the AGM and descending Landen transformations
    import scipy.special

    p = 1.0 - 1.0 / bound
    K = norms._ellipk(p)
    assert abs(K - scipy.special.ellipk(p)) <= 1e-15 * K
    n = len(inv_sqrt_quadrature(bound)[0])
    nodes = (np.arange(n) + 0.5) * (K / n)
    grid = np.linspace(0.0, 0.99 * K, 101)
    for u, rtol, atol in ((nodes, 1e-13, 0.0), (grid, 0.0, 1e-12)):
        got = norms._ellipj(u, p)
        want = scipy.special.ellipj(u, p)[:3]
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= rtol * np.abs(w) + atol)
    if p == 0.0:
        assert K == np.pi / 2 and np.array_equal(norms._ellipj(grid, p)[2], np.ones_like(grid))


@pytest.mark.parametrize("p", [-1e-3, 1.0, np.nan])
def test_agm_refuses_a_parameter_outside_zero_to_one(p):
    # at p = 1 the ladder would never end
    with pytest.raises(ValueError, match="outside"):
        norms._ellipk(p)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("pencil", ["all", "interior", "surface"])
def test_one_ordering_per_pencil_keeps_the_fill(order, pencil):
    # every shift but the first is factored in the first one's ordering; its
    # fill is a fresh minimum-degree factor's and its solve the same to rounding
    sb = _pencils(grams_of(experiments.get_mesh("disk", 4, order)))[pencil]
    assert np.array_equal(sb.perm, np.argsort(sb.factors[0].perm_c))
    b = np.random.default_rng([order, len(sb)]).normal(size=len(sb))
    for j, (s, lu) in enumerate(zip(sb.shifts, sb.factors)):
        fresh = _spd_factor(sb.K + s * sb.M)
        assert lu.L.nnz + lu.U.nnz == fresh.L.nnz + fresh.U.nnz, j
        want = fresh.solve(b)
        if j == 0:
            got = lu.solve(b)
        else:
            got = np.empty_like(want)
            got[sb.perm] = lu.solve(b[sb.perm])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), j


@pytest.mark.parametrize("order", [1, 2])
def test_block_applies_are_column_by_column(order):
    m = experiments.get_mesh("disk", 4, order)
    rng = np.random.default_rng([order, 8])
    for name, sb in _pencils(grams_of(m)).items():
        B = rng.normal(size=(len(sb), 8))
        cols = np.column_stack([sb.apply(b) for b in B.T])
        assert np.abs(sb.apply(B) - cols).max() <= 1e-14 * np.abs(cols).max(), name
        singles = np.array([dual_norm_from_load(b, sb) for b in B.T])
        assert np.abs(dual_norm_from_load(B, sb) - singles).max() <= 1e-14 * singles.max(), name
        for s in (0.5, 1.5):
            singles = np.array([spectral_power_norm(b, s, sb) for b in B.T])
            assert np.abs(spectral_power_norm(B, s, sb) - singles).max() <= 1e-14 * singles.max(), name
    us = [FeFunction(m, rng.normal(size=m.n_nodes)) for _ in range(8)]
    for dofset in ("all", "interior"):
        for block, single in (
            (hhat_threehalf_norms, hhat_threehalf_norm), (dual_neg_half_norms, dual_neg_half_norm)
        ):
            singles = np.array([single(u, dofset) for u in us])
            assert np.abs(block(us, dofset) - singles).max() <= 1e-14 * singles.max()
    # a block holds scalar functions of one mesh
    other = FeFunction(disk_mesh(4, order), us[0].coeffs)
    vector = FeFunction(m, np.column_stack([us[0].coeffs, us[1].coeffs]))
    for bad in ([us[0], other], [vector]):
        with pytest.raises(ValueError, match="scalar functions of one mesh"):
            hhat_threehalf_norms(bad)


@pytest.mark.parametrize("order", [1, 2])
def test_element_bound_above_oracle(order):
    g = grams_of(experiments.get_mesh("disk", 4, order))
    bounds = {"all": g.bulk_eig_bound, "interior": g.bulk_eig_bound, "surface": g.surf_eig_bound}
    for name, sb in _pencils(g).items():
        assert dense_eigenpairs(sb)[0][-1] <= bounds[name]


def test_operator_build_deterministic(rng):
    mesh = disk_mesh(4, 2)
    builds = [_pencils(assemble_grams(mesh)) for _ in range(2)]
    u = rng.normal(size=mesh.n_nodes)
    for name, sb in builds[0].items():
        other = builds[1][name]
        assert np.array_equal(sb.shifts, other.shifts)
        assert np.array_equal(sb.weights, other.weights)
        v = u[: len(sb)]
        for s in (0.5, 1.5):
            assert spectral_power_norm(v, s, sb) == spectral_power_norm(v, s, other)
        assert dual_norm_from_load(v, sb) == dual_norm_from_load(v, other)


def test_dense_eig_cap_refuses_before_eigh(monkeypatch, tmp_path):
    eigh = scipy.linalg.eigh

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    mesh = disk_mesh(2, 1)
    pencils = _pencils(assemble_grams(mesh))
    # the cap counts each pencil's own DOFs
    for name, sb in pencils.items():
        size = len(sb)
        monkeypatch.setattr(norms, "DENSE_EIG_NODE_CAP", size - 1)
        with pytest.raises(RuntimeError, match=f"{name} pencil with {size} DOFs exceeds the dense eigensolve cap"):
            dense_eigenpairs(sb)
    # a surface pencil under the cap is solved while the bulk mesh is over it
    n_surf = len(pencils["surface"])
    assert n_surf < mesh.n_nodes
    monkeypatch.setattr(norms, "DENSE_EIG_NODE_CAP", n_surf)
    with pytest.raises(RuntimeError, match="all pencil"):
        dense_eigenpairs(pencils["all"])
    monkeypatch.setattr(scipy.linalg, "eigh", eigh)
    assert len(dense_eigenpairs(pencils["surface"])[0]) == n_surf
    # the registry never calls eigh: every experiment runs clean without it
    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    monkeypatch.setattr(norms, "DENSE_EIG_NODE_CAP", 0)
    monkeypatch.setattr(experiments, "get_mesh", lambda kind, n, order: (
        disk_mesh(n, order) if kind == "disk" else build_square_mesh(n, order)
    ))
    assert cli.main(["verify", "all", "--levels", "3", "--out", str(tmp_path)]) == 0


def test_operator_refuses_factors_over_the_budget_after_the_first(monkeypatch):
    factored = []

    def counted(*args):
        factored.append(args)
        return _spd_factor(*args)

    monkeypatch.setattr(norms, "_spd_factor", counted)
    mesh = disk_mesh(3, 1)
    sb = spectral_decomp(assemble_grams(mesh))
    count = len(sb.shifts)
    assert len(factored) == count
    # the estimate: N factors of the first one's nonzeros, 12 bytes each
    estimate = count * sb.factors[0].nnz * 12
    monkeypatch.setattr(norms, "FACTOR_BUDGET_BYTES", estimate - 1)
    factored.clear()
    with pytest.raises(ValueError, match=(
        rf"all pencil with {mesh.n_nodes} DOFs: {count} factors of about "
        rf"{estimate / 2**20:.1f} MiB exceed the budget of {(estimate - 1) / 2**20:.1f} MiB"
    )):
        spectral_decomp(assemble_grams(mesh))
    assert len(factored) == 1
    # an estimate at the budget is built
    monkeypatch.setattr(norms, "FACTOR_BUDGET_BYTES", estimate)
    assert len(spectral_decomp(assemble_grams(mesh)).factors) == count
