import numpy as np
import pytest
import scipy.linalg

from h32fem import cli, experiments, interp, meshing, norms, solvers
from h32fem.assembly import (
    FeFunction,
    bulk_quad_data,
    eig_bound,
    eval_on_elements,
    grams_of,
    nodal_interp_bulk,
    trace,
)
from h32fem.experiments import REGISTRY, ExperimentConfig, run_plan
from h32fem.meshing import _spd_factor, build_square_mesh, disk_mesh
from h32fem.norms import (
    QUAD_TOL,
    dense_eigenpairs,
    dual_neg_half_norms,
    dual_norms,
    gradient_pairing_load,
    h1_norm,
    h_s_norms,
    hhat_threehalf_norms,
    inv_sqrt_quadrature,
    l2_norm,
    spectral_decomp,
)


@pytest.fixture(scope="module")
def setup(disk4k1):
    g = grams_of(disk4k1)
    return disk4k1, g, spectral_decomp(disk4k1, "all"), spectral_decomp(disk4k1, "interior")


def _form(left, right):
    """sqrt(left . right), per column of a block: the quadratic forms of the
    primitives, in the same summation."""
    return np.sqrt(np.vecdot(left.T, right.T))


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
    # the L2 and H1 forms, and h_s_norms at s = 0 and 1, against the dense
    # oracle's sqrt(sum lambda^s y^2), y = V^T M u
    m, g, sb, _ = setup
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    lam, V = dense_eigenpairs(sb)
    y = V.T @ (sb.M @ u.coeffs)
    for s, form in ((0.0, l2_norm), (1.0, h1_norm)):
        oracle = np.sqrt(np.sum(lam**s * y**2))
        for value in (form(u), h_s_norms([u], s)[0]):
            assert abs(value - oracle) <= 1e-10 * oracle


def test_zero_and_homogeneity(setup, rng):
    m, g, sb, _ = setup
    zero = FeFunction(m, np.zeros(m.n_nodes))
    assert h_s_norms([zero], 0.5)[0] == 0.0
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    n = h_s_norms([u], 0.5)[0]
    assert abs(h_s_norms([u.scaled(-3.25)], 0.5)[0] - 3.25 * n) < 1e-12 * max(1, n)


def test_monotonicity_in_s(setup, rng):
    m, g, sb, _ = setup
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    lam, V = dense_eigenpairs(sb)
    y = V.T @ (sb.M @ u.coeffs)
    vals = [np.sqrt(np.sum(lam**s * y**2)) for s in np.linspace(0.0, 1.5, 16)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    # the primitive's four orders sit on the oracle's curve
    for s in (0.0, 0.5, 1.0, 1.5):
        assert abs(h_s_norms([u], s)[0] - vals[int(10 * s)]) <= 1e-10 * vals[int(10 * s)]


def test_s_range_validation(setup):
    # an order outside {0, 1/2, 1, 3/2} is refused before any norm is taken
    m, g, sb, _ = setup
    u = FeFunction(m, np.ones(m.n_nodes))
    for s in (1.2, 0.25, 2.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="s must be 0, 1/2, 1 or 3/2"):
            h_s_norms([u], s)
        with pytest.raises(ValueError, match="s must be 0, 1/2, 1 or 3/2"):
            h_s_norms([trace(u)], s)


def test_dual_norm_zero_and_sup_attainment(setup, rng):
    m, g, sb, sbi = setup
    zero = FeFunction(m, np.zeros(m.n_nodes), "bulk0")
    assert dual_neg_half_norms([zero], "interior")[0] == 0.0
    c = rng.normal(size=m.n_nodes)
    c[m.boundary_node_ids] = 0.0
    f = FeFunction(m, c, "bulk0")
    b = (g.M_bulk @ f.coeffs)[sbi.ids]
    d = dual_norms(g.M_bulk @ f.coeffs, m, "interior")
    assert d == dual_neg_half_norms([f], "interior")[0]
    # attained at phi = R b, whose H^{1/2} norm on the set is sqrt((M phi) . R (K phi))
    phi = sbi.apply(b)
    attained = (b @ phi) / _form(sbi.M @ phi, sbi.apply(sbi.K @ phi))
    assert abs(d - attained) <= 1e-8 * max(d, 1e-30)


def test_zero_trace_below_full(setup, rng):
    m, g, sb, sbi = setup
    fs = []
    for _ in range(10):
        c = rng.normal(size=m.n_nodes)
        c[m.boundary_node_ids] = 0.0
        fs.append(FeFunction(m, c, "bulk0"))
    zt = dual_neg_half_norms(fs, "interior")
    fl = dual_neg_half_norms(fs, "all")
    assert np.all(zt <= fl + 1e-12)


def test_variant_dofset_mismatch(setup):
    # the variant is the test space's DOF set; the surface is no bulk variant
    m, g, sb, sbi = setup
    f = FeFunction(m, np.ones(m.n_nodes))
    zq = np.ones((m.n_elements, len(bulk_quad_data(m)["rule"].weights), 2))
    for norm in (
        lambda: dual_neg_half_norms([f], "surface"),
        lambda: dual_norms(gradient_pairing_load(zq, m), m, "surface"),
        lambda: hhat_threehalf_norms([f], "surface"),
        lambda: dual_norms(np.ones(m.n_nodes), m, "boundary"),
    ):
        with pytest.raises(ValueError, match="a bulk test space is 'all' or 'interior'"):
            norm()
    # the interior operator sees only interior test functions
    assert dual_neg_half_norms([f], "interior")[0] < dual_neg_half_norms([f], "all")[0]


def test_vec_dual_constant_field_zero_trace(setup):
    # a constant field paired with gradients: zero against zero-trace test
    # functions, the boundary flux against all of them
    m, g, sb, sbi = setup
    zc = eval_on_elements(FeFunction(m, np.tile([0.7, -1.3], (m.n_nodes, 1))))[0]
    load = gradient_pairing_load(zc, m)
    assert dual_norms(load, m, "interior") < 1e-10
    assert dual_norms(load, m, "all") > 1e-3


def test_hhat_norm_of_constant(setup):
    m, g, sb, sbi = setup
    c = 2.5
    u = nodal_interp_bulk(m, lambda p: c * np.ones(len(p)))
    ones_s = np.ones(len(m.boundary_node_ids))
    perimeter = ones_s @ (g.M_surf @ ones_s)
    expected = c * np.sqrt(perimeter)
    assert abs(hhat_threehalf_norms([u])[0] - expected) < 1e-10


def test_discrete_trace_inequality(setup, rng):
    m, g, sb, sbi = setup
    # the 3/2 norm contains the boundary H1 term by construction
    us = [FeFunction(m, rng.normal(size=m.n_nodes)) for _ in range(5)]
    tn = h_s_norms([trace(u) for u in us], 1)
    assert np.all(tn <= hhat_threehalf_norms(us) * (1 + 1e-12))


def test_boundary_norms(setup):
    m, g, _, _ = setup
    gs = trace(nodal_interp_bulk(m, lambda p: 3.0 * np.ones(len(p))))
    ones_s = np.ones(len(m.boundary_node_ids))
    per = ones_s @ (g.M_surf @ ones_s)
    assert abs(h1_norm(gs) - 3.0 * np.sqrt(per)) < 1e-12
    # the constant is the pencil's lambda = 1 eigenvector, so its H^{1/2}
    # and H^{3/2} norms are its L2 norm up to the operator's relative error
    v0 = l2_norm(gs)
    for s in (0.5, 1.5):
        assert abs(h_s_norms([gs], s)[0] - v0) <= QUAD_TOL * v0
    with pytest.raises(ValueError):
        h_s_norms([gs], 0.25)


@pytest.mark.parametrize("order", [1, 2])
def test_surface_norms_are_the_surface_forms(order):
    # on a surface function the L2 and H1 norms, and h_s_norms at s = 0 and 1,
    # are the surface mass and stiffness forms, bit for bit
    m = experiments.get_mesh("disk", 4, order)
    g = grams_of(m)
    rng = np.random.default_rng([order, 5])
    gs = trace(FeFunction(m, rng.normal(size=m.n_nodes)))
    t = gs.coeffs
    l2 = float(np.sqrt(t @ (g.M_surf @ t)))
    h1 = float(np.sqrt(t @ (g.M_surf @ t) + t @ (g.A_surf @ t)))
    assert l2_norm(gs) == h_s_norms([gs], 0)[0] == l2
    assert h1_norm(gs) == h_s_norms([gs], 1)[0] == h1


def test_operator_powers_are_only_one_half_and_three_halves(monkeypatch, rng):
    # s = 0 and 1 are the forms (l2_norm, h1_norm), bit for bit, and build
    # no operator; only s = 1/2 and 3/2 reach it
    def refuse(*args):
        raise AssertionError("operator built for a form")

    m = disk_mesh(2, 1)
    us = [FeFunction(m, rng.normal(size=m.n_nodes)) for _ in range(3)]
    monkeypatch.setattr(norms, "spectral_decomp", refuse)
    for fs in (us, [trace(u) for u in us]):
        for s, form in ((0, l2_norm), (1, h1_norm)):
            assert np.array_equal(h_s_norms(fs, s), [form(f) for f in fs])
        for s in (0.5, 1.5):
            with pytest.raises(AssertionError, match="operator built"):
                h_s_norms(fs, s)


def test_unknown_pencil_raises_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(norms, "_operator", lambda *args: built.append(args))
    mesh = disk_mesh(2, 1)
    with pytest.raises(ValueError, match="unknown dofset 'boundary'"):
        spectral_decomp(mesh, "boundary")
    with pytest.raises(ValueError, match="not 'surface'"):
        dual_norms(np.ones(mesh.n_nodes), mesh, "surface")
    assert built == [] and "_cache" not in vars(mesh)


def test_norm_homogeneity_all_ops(setup, rng):
    m, g, sb, sbi = setup
    alpha = 1.7
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    for norm in (
        hhat_threehalf_norms,
        lambda us: dual_neg_half_norms(us, "all"),
        lambda us: h_s_norms(us, 1.5),
    ):
        base, scaled = norm([u, u.scaled(alpha)])
        assert abs(scaled - alpha * base) < 1e-12 * max(1.0, base)


@pytest.mark.parametrize("order", [1, 2])
def test_fe_norms_are_the_vector_formulas_on_the_meshs_own_grams(order):
    # each norm is its formula on grams_of(u.mesh) and that mesh's operators,
    # bit for bit; the operators of a coarser mesh, built first, cannot reach it
    spectral_decomp(experiments.get_mesh("disk", 2, order), "interior")
    m = experiments.get_mesh("disk", 4, order)
    g = grams_of(m)
    sb, sbi, ss = (spectral_decomp(m, dofset) for dofset in ("all", "interior", "surface"))
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
    assert h_s_norms([u], 0.0)[0] == l2_norm(u) and h_s_norms([u], 1.0)[0] == h1_norm(u)
    # s = 1/2: (M u) . R (K u); s = 3/2: (K u) . R (K u), on the function's pencil
    for op, w in ((sb, c[:, None]), (ss, t[:, None])):
        f = FeFunction(m, w[:, 0], "surface" if op is ss else "bulk")
        assert h_s_norms([f], 0.5) == _form(op.M @ w, op.apply(op.K @ w))
        assert h_s_norms([f], 1.5) == _form(op.K @ w, op.apply(op.K @ w))
    surf = float(np.sqrt(t @ (g.M_surf @ t) + t @ (g.A_surf @ t)))
    zq = eval_on_elements(v)[0]
    for dofset, op in (("all", sb), ("interior", sbi)):
        mass, stiff = (M @ c[:, None])[op.ids], (A @ c[:, None])[op.ids]
        assert dual_neg_half_norms([u], dofset) == _form(mass, op.apply(mass))
        assert hhat_threehalf_norms([u], dofset) == _form(stiff, op.apply(stiff)) + surf
        b = gradient_pairing_load(zq, m)[op.ids]
        assert dual_norms(gradient_pairing_load(zq, m), m, dofset) == _form(b, op.apply(b))
    assert hhat_threehalf_norms([u]) == hhat_threehalf_norms([u], "interior")


def _pencils(mesh):
    return {dofset: spectral_decomp(mesh, dofset) for dofset in ("all", "interior", "surface")}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("pencil", ["all", "interior", "surface"])
def test_operator_matches_dense_oracle(order, pencil):
    # the apply, and the dual norm sqrt(b . R b) of a bulk test space, against
    # the dense oracle's V Lambda^{-1/2} V^T b; the dual norm is attained at R b
    m = experiments.get_mesh("disk", 4, order)
    sb = spectral_decomp(m, pencil)
    lam, V = dense_eigenpairs(sb)
    rng = np.random.default_rng([order, len(sb)])
    for _ in range(3):
        b = rng.normal(size=len(sb))
        y = V.T @ b
        ref = np.sqrt(np.sum(y**2 / np.sqrt(lam)))
        phi = sb.apply(b)
        phi_ref = V @ (y / np.sqrt(lam))
        assert np.abs(phi - phi_ref).max() <= 1e-10 * np.abs(phi_ref).max()
        if pencil != "surface":
            load = np.zeros(m.n_nodes)
            load[sb.ids] = b
            d = dual_norms(load, m, pencil)
            assert abs(d - ref) <= 1e-10 * ref
            assert abs(d - (b @ phi) / _form(sb.M @ phi, sb.apply(sb.K @ phi))) <= 1e-10 * d


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("space", ["bulk", "surface"])
def test_h_s_norms_match_the_dense_oracle(order, space):
    # a block of functions at each order, against the oracle's
    # sqrt(sum lambda^s y^2), y = V^T M u, of the function's pencil: s = 3/2 on
    # the bulk and s = 1/2 on the surface among them
    m = experiments.get_mesh("disk", 4, order)
    sb = spectral_decomp(m, "surface" if space == "surface" else "all")
    lam, V = dense_eigenpairs(sb)
    rng = np.random.default_rng([order, len(sb), 3])
    us = [FeFunction(m, rng.normal(size=len(sb)), space) for _ in range(3)]
    Y = V.T @ (sb.M @ np.column_stack([u.coeffs for u in us]))
    for s in (0, 0.5, 1, 1.5):
        ref = np.sqrt(np.sum(lam[:, None] ** s * Y**2, axis=0))
        assert np.abs(h_s_norms(us, s) - ref).max() <= 1e-10 * ref.min(), s


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
    sb = _pencils(experiments.get_mesh("disk", 4, order))[pencil]
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
    for name, sb in _pencils(m).items():
        B = rng.normal(size=(len(sb), 8))
        cols = np.column_stack([sb.apply(b) for b in B.T])
        assert np.abs(sb.apply(B) - cols).max() <= 1e-14 * np.abs(cols).max(), name
    # each primitive on a block is the primitive column by column
    loads = rng.normal(size=(m.n_nodes, 8))
    for dofset in ("all", "interior"):
        singles = np.array([dual_norms(b, m, dofset) for b in loads.T])
        assert np.abs(dual_norms(loads, m, dofset) - singles).max() <= 1e-14 * singles.max(), dofset
    us = [FeFunction(m, rng.normal(size=m.n_nodes)) for _ in range(8)]
    for fs in (us, [trace(u) for u in us]):
        for s in (0, 0.5, 1, 1.5):
            singles = np.array([h_s_norms([f], s)[0] for f in fs])
            assert np.abs(h_s_norms(fs, s) - singles).max() <= 1e-14 * singles.max(), s
    for dofset in ("all", "interior"):
        for block in (hhat_threehalf_norms, dual_neg_half_norms):
            singles = np.array([block([u], dofset)[0] for u in us])
            assert np.abs(block(us, dofset) - singles).max() <= 1e-14 * singles.max()
    # a block holds scalar functions of one mesh and space
    other = FeFunction(disk_mesh(4, order), us[0].coeffs)
    vector = FeFunction(m, np.column_stack([us[0].coeffs, us[1].coeffs]))
    for bad in ([us[0], other], [vector], [us[0], trace(us[1])]):
        for norm in (hhat_threehalf_norms, lambda fs: h_s_norms(fs, 0.5)):
            with pytest.raises(ValueError, match="scalar functions of one mesh and space"):
                norm(bad)


@pytest.mark.parametrize("order", [1, 2])
def test_element_bound_above_oracle(order):
    mesh = experiments.get_mesh("disk", 4, order)
    for name, sb in _pencils(mesh).items():
        bound = eig_bound(mesh, name == "surface")
        assert dense_eigenpairs(sb)[0][-1] <= bound
        # the operator's shifts are the quadrature's on [1, bound]
        assert np.array_equal(sb.shifts, inv_sqrt_quadrature(bound)[0])


def test_operator_build_deterministic(rng):
    # two builds of one mesh give the same operators and the same norms, bit for bit
    meshes = [disk_mesh(4, 2) for _ in range(2)]
    builds = [_pencils(mesh) for mesh in meshes]
    u = rng.normal(size=meshes[0].n_nodes)
    for name, sb in builds[0].items():
        other = builds[1][name]
        assert np.array_equal(sb.shifts, other.shifts)
        assert np.array_equal(sb.weights, other.weights)
        v = u[: len(sb)]
        assert np.array_equal(sb.apply(v), other.apply(v))
    fs = [FeFunction(mesh, u) for mesh in meshes]
    for s in (0.5, 1.5):
        assert h_s_norms(fs[:1], s) == h_s_norms(fs[1:], s)
        assert h_s_norms([trace(fs[0])], s) == h_s_norms([trace(fs[1])], s)
    for dofset in ("all", "interior"):
        assert dual_norms(u, meshes[0], dofset) == dual_norms(u, meshes[1], dofset)


def test_dense_eig_cap_refuses_before_eigh(monkeypatch, tmp_path):
    eigh = scipy.linalg.eigh

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    mesh = disk_mesh(2, 1)
    pencils = _pencils(mesh)
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
    sb = spectral_decomp(disk_mesh(3, 1))
    count = len(sb.shifts)
    assert len(factored) == count
    # the estimate: N factors of the first one's nonzeros, 12 bytes each
    estimate = count * sb.factors[0].nnz * 12
    monkeypatch.setattr(norms, "FACTOR_BUDGET_BYTES", estimate - 1)
    factored.clear()
    mesh = disk_mesh(3, 1)    # a new mesh: the first one holds its operator
    with pytest.raises(ValueError, match=(
        rf"all pencil with {mesh.n_nodes} DOFs: {count} factors of about "
        rf"{estimate / 2**20:.1f} MiB exceed the budget of {(estimate - 1) / 2**20:.1f} MiB"
    )):
        spectral_decomp(mesh)
    assert len(factored) == 1
    # an estimate at the budget is built
    monkeypatch.setattr(norms, "FACTOR_BUDGET_BYTES", estimate)
    assert len(spectral_decomp(disk_mesh(3, 1)).factors) == count


@pytest.mark.parametrize("order, want", [
    (1, {"factorizations": 175, "shifts": 163, "solvers": 12}),
    (2, {"factorizations": 199, "shifts": 187, "solvers": 12}),
])
def test_factorization_work_of_the_registry(order, want, monkeypatch):
    # the sparse factorizations of the registry at --levels 3 on a fresh mesh
    # store: each operator build makes one per shift (N, the shifts of its
    # element bound) and each solver one; a change to any count is made
    # here on purpose and explained with the change
    counts = dict.fromkeys(want, 0)
    factor, solver, operator = meshing._spd_factor, meshing._spd_solver, norms._operator

    def counted_factor(*args):
        counts["factorizations"] += 1
        return factor(*args)

    def counted_solver(A):
        counts["solvers"] += 1
        return solver(A)

    def counted_operator(*args):
        sb = operator(*args)
        counts["shifts"] += len(sb.shifts)
        return sb

    for module in (meshing, norms):
        monkeypatch.setattr(module, "_spd_factor", counted_factor)
    for module in (meshing, interp, solvers):
        monkeypatch.setattr(module, "_spd_solver", counted_solver)
    monkeypatch.setattr(norms, "_operator", counted_operator)
    monkeypatch.setattr(meshing, "_MESHES", {})
    tables = dict(run_plan(list(REGISTRY), ExperimentConfig(order=order, levels=3)))
    assert all(table.passed for table in tables.values())
    assert counts["factorizations"] == counts["shifts"] + counts["solvers"]
    assert counts == want
