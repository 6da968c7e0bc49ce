import numpy as np
import pytest

from h32fem.assembly import bulk_quad_data, nodal_interp_bulk
from h32fem.basis import (
    TRI_DLAM,
    TRI_EDGES,
    edge_shape,
    edge_shape_deriv,
    tri_edge_ref_points,
    tri_ref_nodes,
    tri_shape,
    tri_shape_grad,
)
from h32fem.lifting import (
    MeshLocator,
    grad_lambda_inf_error,
    lift_mixed,
    lift_of,
)
from h32fem.meshing import build_square_mesh, disk_mesh, geometry_map


@pytest.fixture(scope="module")
def lifted(disk4k2, disk4k2_lift):
    return disk4k2, disk4k2_lift


def _values_at(u, elems, refs):
    """u at per-point (element, reference point) pairs."""
    return np.einsum("nb,nb->n", tri_shape(u.mesh.order, refs), u.coeffs[u.mesh.elements[elems]])


def _lift_mixed_by_einsum(m, elems, refs):
    """Lambda o F at per-point (element, reference point) pairs from the
    generic shape-function stacks, contracted by einsum over (n, nb, 2):
    the reference for the component planes of `lift_mixed`."""
    coords = m.nodes[m.elements[elems]]
    pts = np.einsum("nb,nbx->nx", tri_shape(m.order, refs), coords)
    jac = np.einsum("nbr,nbx->nxr", tri_shape_grad(m.order, refs), coords)
    le = lift_of(m).curved_edge[elems]
    sel = le >= 0
    a, b = np.array(TRI_EDGES)[le[sel]].T
    lam = tri_shape(1, refs[sel])
    idx = np.arange(len(a))
    sigma = np.maximum(lam[idx, a] + lam[idx, b], 1e-30)
    t = lam[idx, b] / sigma
    slots = np.column_stack([a, b, 3 + le[sel]])[:, :m.order + 1]
    nodes = m.nodes[m.elements[elems[sel, None], slots]]
    bpt = np.einsum("nb,nbx->nx", edge_shape(m.order, t), nodes)
    dbdt = np.einsum("nb,nbx->nx", edge_shape_deriv(m.order, t), nodes)
    nrm = np.linalg.norm(bpt, axis=1)
    phat = bpt / nrm[:, None]
    disp = phat - bpt
    dPdt = (dbdt - phat * np.einsum("nx,nx->n", phat, dbdt)[:, None]) / nrm[:, None] - dbdt
    grad_sigma = TRI_DLAM[a] + TRI_DLAM[b]
    sg_t = TRI_DLAM[b] - t[:, None] * grad_sigma
    pts[sel] += sigma[:, None] * disp
    jac[sel] += disp[:, :, None] * grad_sigma[:, None, :] + dPdt[:, :, None] * sg_t[:, None, :]
    return pts, jac


@pytest.mark.parametrize("order", [1, 2])
def test_lift_mixed_matches_the_einsum_formula(order):
    # random points of the boundary layer, and a few interior ones, in
    # random order; the component planes change no digit that matters
    m = disk_mesh(8, order)
    rng = np.random.default_rng([order, 15])
    bel = lift_of(m).boundary_elements()
    elems = rng.permutation(np.concatenate([rng.choice(bel, 2000), rng.integers(0, m.n_elements, 200)]))
    refs = rng.dirichlet([1.0, 1.0, 1.0], len(elems))[:, 1:]
    for got, want in zip(lift_mixed(m, elems, refs), _lift_mixed_by_einsum(m, elems, refs)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_identity_on_interior_elements(lifted):
    m, lm = lifted
    interior = np.nonzero(lm.curved_edge < 0)[0][:5]
    refs = np.array([[0.2, 0.3]] * len(interior))
    pts, _ = lift_mixed(m, interior, refs)
    for e, p in zip(interior, pts):
        expected, _ = geometry_map(m, e, np.array([0.2, 0.3]))
        assert np.abs(p - expected).max() < 1e-14


def test_boundary_nodes_fixed(lifted):
    m, lm = lifted
    bel = lm.boundary_elements()[:5]
    for e in bel:
        le = lm.curved_edge[e]
        for t in (0.0, 0.5, 1.0):
            ref = tri_edge_ref_points(le, np.array([t]))
            p0, _ = geometry_map(m, e, ref[0])
            p1, _ = lift_mixed(m, np.array([e]), ref)
            # nodes already on the circle stay put; other edge points move radially
            if abs(np.linalg.norm(p0) - 1.0) < 1e-12:
                assert np.abs(p1[0] - p0).max() < 1e-12


def test_curved_edge_maps_onto_circle(lifted):
    # every boundary face, reached through the mesh's face table
    m, lm = lifted
    assert np.array_equal(lm.curved_edge[m.face_elem], m.face_local_edge)
    ts = np.append(np.linspace(0.0, 1.0, 33), 0.37)
    worst = 0.0
    for e, le in zip(m.face_elem, m.face_local_edge):
        ref = tri_edge_ref_points(le, ts)
        pts, _ = lift_mixed(m, np.full(len(ts), e), ref)
        worst = max(worst, np.abs(np.linalg.norm(pts, axis=1) - 1.0).max())
    assert worst < 1e-10


def test_continuity_across_interfaces(lifted):
    m, lm = lifted
    # every interior edge of a boundary element must agree with the plain map
    ts = np.linspace(0.0, 1.0, 9)
    for e in lm.boundary_elements()[:8]:
        for le in range(3):
            if le == lm.curved_edge[e]:
                continue
            ref = tri_edge_ref_points(le, ts)
            lifted_pts, _ = lift_mixed(m, np.full(len(ts), e), ref)
            plain, _ = geometry_map(m, e, ref)
            assert np.abs(lifted_pts - plain).max() < 1e-10


def test_jacobian_finite_difference(lifted):
    # the composite Jacobian of xi -> Lambda(F(xi)) against differences of its points
    m, lm = lifted
    e = lm.boundary_elements()[0]
    ref0 = np.array([0.31, 0.27])
    p0, J = lift_mixed(m, np.array([e]), ref0[None, :])
    eps = 1e-7
    num = np.zeros((2, 2))
    for r in range(2):
        d = np.zeros(2)
        d[r] = eps
        p1, _ = lift_mixed(m, np.array([e]), (ref0 + d)[None, :])
        num[:, r] = (p1[0] - p0[0]) / eps
    assert np.abs(J[0] - num).max() < 1e-6 * np.abs(J[0]).max()


def test_grad_lambda_decay_rate():
    for k in (1, 2):
        errs, hs = [], []
        for n in (4, 8, 16, 32):
            m = disk_mesh(n, k)
            errs.append(grad_lambda_inf_error(m))
            hs.append(m.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - k) <= 0.3


def test_lift_positive_orientation(lifted):
    m, _ = lifted
    assert bulk_quad_data(m, lifted=True)["det"].min() > 0.0


def test_composition_roundtrip(lifted):
    # u read back at the located lifts of its own nodes gives its nodal values
    m, _ = lifted
    u = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2)
    elems = np.repeat(np.arange(m.n_elements), m.elements.shape[1])
    refs = np.tile(tri_ref_nodes(m.order), (m.n_elements, 1))
    lifted_nodes, _ = lift_mixed(m, elems, refs)
    back = _values_at(u, *MeshLocator(m).locate(lifted_nodes))
    assert np.abs(back - u.coeffs[m.elements.ravel()]).max() < 1e-12


def test_locator_roundtrip(lifted, rng):
    m, _ = lifted
    loc = MeshLocator(m)
    r = np.sqrt(rng.uniform(0, 1, 300)) * 0.999
    th = rng.uniform(0, 2 * np.pi, 300)
    P = np.column_stack([r * np.cos(th), r * np.sin(th)])
    elems, refs = loc.locate(P)
    back, _ = lift_mixed(m, elems, refs)
    assert np.abs(back - P).max() < 1e-9



def test_locator_tries_every_candidate_before_extra_starts(lifted, monkeypatch):
    # the rule points of a finer k=2 disk in the lifted 4-ring k=2 disk: every
    # candidate gets its closed-form reference point, and Newton runs only on
    # boundary-layer candidates whose straight-chord inverse scores within
    # slack, from that point, each point until it converges
    m, lm = lifted
    pts = bulk_quad_data(disk_mesh(6, 2))["pts"].reshape(-1, 2)
    loc = MeshLocator(m)
    newton_elems, forward_pts, iterations = [], [], []
    newton, forward = MeshLocator._newton, MeshLocator._forward

    def counted(self, elems, targets, refs):
        vertex = np.einsum("nrx,nx->nr", self._inv[elems], targets - self._origin[elems])
        assert np.array_equal(refs, self._wedge_inverse(elems, targets, vertex))
        assert (self._violation(refs) <= self.slack).all()
        newton_elems.append(elems)
        before = len(forward_pts)
        out = newton(self, elems, targets, refs)
        iterations.append(len(forward_pts) - before)
        return out

    def counted_forward(self, elems, refs):
        forward_pts.append(len(elems))
        return forward(self, elems, refs)

    monkeypatch.setattr(MeshLocator, "_newton", counted)
    monkeypatch.setattr(MeshLocator, "_forward", counted_forward)
    elems, refs = loc.locate(pts)
    back, _ = lift_mixed(m, elems, refs)
    assert np.linalg.norm(back - pts, axis=1).max() <= 1e-9
    assert MeshLocator._violation(refs).max() <= loc.tol
    newton_elems = np.concatenate(newton_elems)
    assert np.all(lm.curved_edge[newton_elems] >= 0)
    # every Newton point lies in its element: each pair is a located point
    # whose Newton stops on its residual within the 25 iterations
    assert len(newton_elems) == np.count_nonzero(lm.curved_edge[elems] >= 0)
    assert max(iterations) <= 25
    # 5,879 forward point evaluations for the 5,400 points (5,907 from the
    # vertex-triangle start, 6,931 while candidates that cannot contain their
    # point also ran Newton)
    assert sum(forward_pts) == 5879


def test_closed_form_matches_newton_on_affine_elements(lifted):
    # the closed-form inverse against Newton from the centroid on the same
    # (element, point) pairs
    m, lm = lifted
    pts = bulk_quad_data(disk_mesh(6, 2))["pts"].reshape(-1, 2)
    loc = MeshLocator(m)
    elems, refs = loc.locate(pts)
    aff = lm.curved_edge[elems] < 0
    assert 0 < np.count_nonzero(aff) < len(pts)
    centroid = np.full((np.count_nonzero(aff), 2), 1.0 / 3.0)
    newton, resid = loc._newton(elems[aff], pts[aff], centroid)
    assert resid.max() <= 1e-12
    assert np.abs(refs[aff] - newton).max() <= 1e-12


def test_locator_on_straight_mesh_runs_no_newton(monkeypatch):
    # every element of the k=2 square is affine: the rule points of a finer
    # square are located in closed form (15,933 forward point evaluations
    # when each candidate ran Newton)
    loc = MeshLocator(build_square_mesh(6, 2))
    pts = bulk_quad_data(build_square_mesh(9, 2))["pts"].reshape(-1, 2)
    calls = []
    monkeypatch.setattr(MeshLocator, "_newton", lambda *args: calls.append(args))
    elems, refs = loc.locate(pts)
    assert calls == []
    assert MeshLocator._violation(refs).max() <= loc.tol
    back = np.einsum("nb,nbx->nx", tri_shape(2, refs), loc.mesh.nodes[loc.mesh.elements[elems]])
    assert np.abs(back - pts).max() <= 1e-13


def test_locator_refuses_a_point_in_no_element():
    # a point 1e-4 right of square(3, 1) lies in no element: locate() refuses
    # the whole call and names how many points it could not place; inside
    # points, and a point exactly on the boundary edge x = 1, are located
    sq = build_square_mesh(3, 1)
    loc = MeshLocator(sq)
    pts = np.array([[0.5, 0.5], [0.2, 0.7], [1.0, 0.5]])
    elems, refs = loc.locate(pts)
    assert MeshLocator._violation(refs).max() <= loc.tol
    back, _ = geometry_map(sq, elems, refs)
    assert np.abs(back - pts).max() <= 1e-12
    refused = r"^1 of 2 points lie in no element, e\.g\. \[1\.0001, 0\.5\]"
    with pytest.raises(RuntimeError, match=refused):
        loc.locate(np.array([[1.0 + 1e-4, 0.5], [0.5, 0.5]]))
    # on the disk as well, and a point off the grid of element boxes (far
    # away, or not a number) has no candidate at all
    far = np.array([[0.0, 0.0], [1.5, 0.0], [0.2, -0.3], [np.nan, 0.0], [-1e300, 1e300]])
    disk = MeshLocator(disk_mesh(3, 2))
    with pytest.raises(RuntimeError, match=r"^3 of 5 points lie in no element, e\.g\. \[1\.5, 0\.0\]"):
        disk.locate(far)
    start, stop = disk._candidates(far)
    assert np.array_equal(start < stop, [True, False, True, False, False])


def test_lift_is_built_once_per_mesh():
    m = disk_mesh(3, 1)
    assert lift_of(m) is lift_of(m)
    assert lift_of(m).mesh is m
    assert lift_of(disk_mesh(3, 1)) is not lift_of(m)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize(
    "kind, n", [("disk", n) for n in range(2, 9)] + [("square", n) for n in range(2, 7)]
)
def test_every_cell_lists_ascending_element_ids(kind, n, order):
    # the order locate() tries a cell's candidates in, fixed by the mesh alone
    m = disk_mesh(n, order) if kind == "disk" else build_square_mesh(n, order)
    loc = MeshLocator(m)
    starts = loc._cell_start
    assert starts[0] == 0 and starts[-1] == len(loc._cell_elems)
    for a, b in zip(starts[:-1], starts[1:]):
        assert np.all(np.diff(loc._cell_elems[a:b]) > 0)


@pytest.mark.parametrize("order", [1, 2])
def test_lifted_geometry_of_selected_elements_is_a_row_subset(order):
    # any selection, boundary-layer and interior elements mixed, in any order
    m = disk_mesh(4, order)
    refs = np.array([[0.2, 0.3], [0.6, 0.1], [1 / 3, 1 / 3]])
    full = lift_of(m).geometry(refs)
    sel = np.random.default_rng(5).permutation(m.n_elements)[:40]
    assert 0 < np.count_nonzero(lift_of(m).curved_edge[sel] >= 0) < len(sel)
    for a, b in zip(lift_of(m).geometry(refs, sel), full):
        assert same_bytes(a, b[sel])


def test_square_lift_is_identity():
    sq = build_square_mesh(3, 2)
    assert len(lift_of(sq).boundary_elements()) == 0
    u = nodal_interp_bulk(sq, lambda p: p[:, 0] * p[:, 1])
    pts = np.array([[0.21, 0.33], [0.8, 0.05]])
    vals = _values_at(u, *MeshLocator(sq).locate(pts))
    assert np.abs(vals - pts[:, 0] * pts[:, 1]).max() < 1e-11


@pytest.mark.parametrize("order", [1, 2])
def test_lifted_surface_forms_match_per_face_loop(order):
    # the lifted surface Grams against the per-face lift, as a reference
    from h32fem.assembly import grams_of, trace
    from h32fem.basis import TRI_EDGES, TRI_VERTS, edge_shape, edge_shape_deriv
    from h32fem.quadrature import default_degree, edge_rule

    m = disk_mesh(3, order)
    tz = trace(nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) + p[:, 1]))
    tw = trace(nodal_interp_bulk(m, lambda p: np.cos(2.0 * p[:, 1]) * p[:, 0]))
    er = edge_rule(default_degree(order))
    psi, dpsi = edge_shape(order, er.points), edge_shape_deriv(order, er.points)
    ms = asur = 0.0
    for f in range(len(m.boundary_faces)):
        e, le = m.face_elem[f], m.face_local_edge[f]
        refs = tri_edge_ref_points(le, er.points)
        _, jc = lift_mixed(m, np.full(len(refs), e), refs)
        a, b = TRI_EDGES[le]
        speed = np.linalg.norm(np.einsum("nxr,r->nx", jc, TRI_VERTS[b] - TRI_VERTS[a]), axis=1)
        zc, wc = tz.coeffs[m.surface_faces[f]], tw.coeffs[m.surface_faces[f]]
        ms += float(np.sum(er.weights * speed * (psi @ zc) * (psi @ wc)))
        asur += float(np.sum(er.weights * (dpsi @ zc) * (dpsi @ wc) / speed))
    gl = grams_of(m, lifted=True)
    got = (tz.coeffs @ (gl.M_surf @ tw.coeffs), tz.coeffs @ (gl.A_surf @ tw.coeffs))
    assert np.allclose(got, (ms, asur), rtol=1e-13, atol=0.0)


# -- the lifted record is the plain one with the lift composed on the boundary layer


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_rows_differ_only_on(plain, lifted, rows):
    """The two bulk records have the same keys and shapes, and their arrays
    of per-element rows differ on the given element rows only."""
    assert plain.keys() == lifted.keys()
    rest = np.setdiff1d(np.arange(len(plain["det"])), rows)
    for key in ("phi", "dphi"):
        assert same_bytes(plain[key], lifted[key]), key
    for key in ("pts", "det", "jinv"):
        assert plain[key].shape == lifted[key].shape, key
        assert same_bytes(plain[key][rest], lifted[key][rest]), key
        for e in rows:
            assert not np.array_equal(plain[key][e], lifted[key][e]), (key, e)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("order", [1, 2])
def test_identity_lift_record_and_grams_are_the_plain_ones(n, order):
    from h32fem.assembly import assemble_grams, surface_quad_data

    # the square's boundary layer is empty: every array is the plain one
    sq = build_square_mesh(n, order)
    assert len(lift_of(sq).boundary_elements()) == 0
    assert bulk_quad_data(sq) is not bulk_quad_data(sq, lifted=True)
    assert_rows_differ_only_on(bulk_quad_data(sq), bulk_quad_data(sq, lifted=True), [])
    plain, lifted = surface_quad_data(sq), surface_quad_data(sq, lifted=True)
    assert plain is not lifted and plain.keys() == lifted.keys()
    for key, value in plain.items():
        if key != "rule":
            assert same_bytes(value, lifted[key]), key
    g, gl = assemble_grams(sq), assemble_grams(sq, lifted=True)
    for name in ("M_bulk", "A_bulk", "M_surf", "A_surf"):
        a, b = getattr(g, name), getattr(gl, name)
        assert same_bytes(a.indptr, b.indptr) and same_bytes(a.indices, b.indices), name
        assert same_bytes(a.data, b.data), name


@pytest.mark.parametrize("order", [1, 2])
def test_lifted_record_is_plain_off_the_boundary_layer(order):
    m = disk_mesh(5, order)
    bl = lift_of(m).boundary_elements()
    assert same_bytes(bl, np.nonzero(lift_of(m).curved_edge >= 0)[0]) and len(bl)
    assert_rows_differ_only_on(bulk_quad_data(m), bulk_quad_data(m, lifted=True), bl)


def full_array_grad_lambda_error(lm):
    """max |grad(Lambda) - I| over every element's rule points, from J (J_geo)^-1."""
    from h32fem.meshing import _inverse_2x2, _norm_2x2, batched_geometry
    from h32fem.quadrature import default_degree, triangle_rule

    mesh = lm.mesh
    rule = triangle_rule(default_degree(mesh.order))
    m = len(rule)
    _, jgeo, _ = batched_geometry(mesh, rule.points)
    jac = jgeo.copy()
    bel = lm.boundary_elements()
    _, dD = lm.displacement(np.repeat(bel, m), np.tile(rule.points, (len(bel), 1)))
    jac[bel] += dD.reshape(len(bel), m, 2, 2)
    grad_lambda = np.einsum("emxr,emrs->emxs", jac, _inverse_2x2(jgeo)[0])
    return float(_norm_2x2(grad_lambda - np.eye(2)).max())


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("order", [1, 2])
def test_grad_lambda_error_is_the_full_array_formula(n, order):
    m = disk_mesh(n, order)
    assert grad_lambda_inf_error(m) == full_array_grad_lambda_error(lift_of(m))


# -- the straight-chord inverse's slack ahead of Newton drops no point Newton would place


def _overkill_point_sets(levels, order):
    """The registry's overkill point sets of its disks at `levels`: the fine
    rule points and the fine boundary nodes, located in the lifted coarse
    mesh, and the lifted Scott-Zhang moment points, located in the fine mesh."""
    from h32fem.experiments import overkill_rings
    from h32fem.interp import _sz_moments, overkill_mesh
    from h32fem.meshing import shared_mesh

    for n in overkill_rings(levels):
        m = shared_mesh("disk", n, order)
        fine = overkill_mesh(m)
        sz = _sz_moments(m)
        yield m, bulk_quad_data(fine)["pts"].reshape(-1, 2)
        yield m, fine.nodes[fine.boundary_node_ids]
        yield fine, lift_mixed(m, sz["elems"], sz["refs"])[0]


@pytest.mark.parametrize(
    "order, levels", [(1, 4), (2, 4), pytest.param(2, 5, marks=pytest.mark.slow)]
)
def test_containment_pretest_drops_no_point(order, levels, monkeypatch):
    sets = list(_overkill_point_sets(levels, order))
    got = [MeshLocator(m).locate(pts) for m, pts in sets]
    monkeypatch.setattr(MeshLocator, "slack", np.inf)
    for (m, pts), (elems, refs) in zip(sets, got):
        want_elems, want_refs = MeshLocator(m).locate(pts)
        assert np.array_equal(elems, want_elems)
        assert np.abs(refs - want_refs).max() <= 1e-14


@pytest.mark.parametrize("order", [1, 2])
def test_points_on_the_lifted_boundary_layer_edges_are_located(order):
    # on each curved element's arc, on its two straight edges and at its
    # vertices: the closed set whose straight-chord inverse lies in the
    # reference triangle, wedge and disk alike
    m = disk_mesh(4, order)
    lm = lift_of(m)
    bel = lm.boundary_elements()
    le = lm.curved_edge[bel]
    o, a, b = (m.nodes[m.elements[bel, (le + i) % 3]] for i in (2, 0, 1))
    s = np.array([0.1, 0.5, 0.9])[:, None, None]
    ta, tb = np.arctan2(a[:, 1], a[:, 0]), np.arctan2(b[:, 1], b[:, 0])
    theta = ta + s[..., 0] * np.angle(np.exp(1j * (tb - ta)))
    arc = np.stack([np.cos(theta), np.sin(theta)], axis=-1).reshape(-1, 2)
    pts = np.vstack([arc, (o + s * (a - o)).reshape(-1, 2), (o + s * (b - o)).reshape(-1, 2), o, a, b])
    loc = MeshLocator(m)
    elems, refs = loc.locate(pts)
    back, _ = lift_mixed(m, elems, refs)
    assert np.abs(back - pts).max() <= 1e-12
    assert MeshLocator._violation(refs).max() <= loc.tol
    # an arc point off the vertices lies in its curved element only
    assert np.array_equal(elems[:len(arc)], np.tile(bel, 3))
    e, x = np.tile(bel, 8), pts[:8 * len(bel)]
    assert (loc._violation(loc._wedge_inverse(e, x, np.full_like(x, np.nan))) <= loc.slack).all()


# -- the grid of element boxes lists every element that can contain a point


ARC_POINTS = 720


def _probe_points(m):
    """Points where location is delicate: vertices, shared edges, lifted rule
    points of a finer mesh, and on the disk points on the arc, 1e-12 outside
    it (still within the acceptance tolerance) and 1e-9 outside it (in no
    element)."""
    ne = m.n_elements
    edge_refs = tri_edge_ref_points(np.repeat(np.arange(3), 3), np.tile([0.0, 0.5, 0.8], 3))
    on_edges = lift_mixed(m, np.repeat(np.arange(ne), 9), np.tile(edge_refs, (ne, 1)))[0]
    finer = disk_mesh(7, m.order) if m.domain_kind == "disk" else build_square_mesh(7, m.order)
    sets = [m.nodes, on_edges, bulk_quad_data(finer)["pts"].reshape(-1, 2)]
    if m.domain_kind == "disk":
        theta = np.linspace(0.0, 2.0 * np.pi, ARC_POINTS, endpoint=False)
        arc = np.column_stack([np.cos(theta), np.sin(theta)])
        sets += [arc, arc * (1.0 + 1e-12), arc * (1.0 + 1e-9)]
    return np.vstack(sets)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("kind, n", [("disk", 3), ("disk", 4), ("disk", 5), ("square", 4)])
def test_every_element_containing_a_point_is_in_its_cell(kind, n, order):
    # brute force over all elements: the pre-test and the inversion of every
    # element at every point; each element that contains the point within
    # tol is among the candidates of the point's cell (on disk 3 and 5, arc
    # points leave their elements' vertex boxes: without the sagitta's
    # padding about 100 of them miss an element that contains them)
    m = disk_mesh(n, order) if kind == "disk" else build_square_mesh(n, order)
    loc = MeshLocator(m)
    pts = _probe_points(m)
    contains = np.stack([
        loc._invert(np.full(len(pts), e), pts)[1] <= loc.tol for e in range(m.n_elements)
    ], axis=1)
    start, stop = loc._candidates(pts)
    listed = np.zeros_like(contains)
    for i, (a, b) in enumerate(zip(start, stop)):
        listed[i, loc._cell_elems[a:b]] = True
    assert not (contains & ~listed).any()
    # every point is contained somewhere but the ones 1e-9 off the arc
    inside = contains.any(axis=1)
    n_out = ARC_POINTS if kind == "disk" else 0
    assert inside[:len(pts) - n_out].all() and not inside[len(pts) - n_out:].any()
    elems, refs = loc.locate(pts[inside])
    assert contains[np.nonzero(inside)[0], elems].all()
    back, _ = lift_mixed(m, elems, refs)
    assert np.abs(back - pts[inside]).max() <= 1e-9
    if n_out:
        with pytest.raises(RuntimeError, match=rf"^{n_out} of {len(pts)} points lie in no element"):
            loc.locate(pts)


# -- the closed-form start of Newton on the boundary layer


def test_wedge_inverse_is_newtons_point_at_k1(monkeypatch):
    # at k=1 the lift is x = lam_o o + (1 - lam_o) P(e(t)) exactly: the
    # closed form gives back the reference points of lifted points to 1e-14,
    # Newton from it accepts every point at its first residual check, and
    # Newton from the vertex triangle agrees to its own stopping accuracy
    # (a residual of 1e-13 leaves about 4e-13 in the reference point)
    m = disk_mesh(4, 1)
    loc = MeshLocator(m)
    bel = lift_of(m).boundary_elements()
    rng = np.random.default_rng(11)
    r = rng.uniform(0.0, 1.0, (len(bel) * 20, 2))
    refs = np.vstack([np.where(r.sum(axis=1, keepdims=True) > 1.0, 1.0 - r[:, ::-1], r),
                      tri_edge_ref_points(np.arange(3).repeat(2), np.tile([0.3, 0.7], 3))])
    elems = np.concatenate([np.repeat(bel, 20), np.full(6, bel[0])])
    x, _ = lift_mixed(m, elems, refs)
    vertex = np.einsum("nrx,nx->nr", loc._inv[elems], x - loc._origin[elems])
    newton, resid = loc._newton(elems, x, vertex)
    assert resid.max() <= 1.5e-13
    wedge = loc._wedge_inverse(elems, x, np.full_like(refs, np.nan))
    assert np.abs(wedge - refs).max() <= 1e-14
    assert np.abs(wedge - newton).max() <= 1e-12
    calls = []
    forward = MeshLocator._forward
    monkeypatch.setattr(MeshLocator, "_forward", lambda self, e, r: calls.append(len(e)) or forward(self, e, r))
    again, resid = loc._newton(elems, x, wedge)
    assert calls == [len(elems)] and resid.max() <= 1.5e-13
    assert np.array_equal(again, wedge)


@pytest.mark.parametrize("order", [1, 2])
def test_wedge_inverse_at_the_apex_and_off_the_disk(order):
    m = disk_mesh(4, order)
    loc = MeshLocator(m)
    bel = lift_of(m).boundary_elements()
    local, o, a, b = loc._wedge(bel)
    # at x = o the ray is undefined: the row keeps the vertex-triangle start
    sentinel = np.full((len(bel), 2), 7.0)
    assert np.array_equal(loc._wedge_inverse(bel, o, sentinel), sentinel)
    # past the arc, inside the wedge: finite, with lam_o < 0; at k=1 the
    # lift's own extension maps it back
    x = 1.05 * (0.5 * (a + b)) / np.linalg.norm(0.5 * (a + b), axis=1)[:, None]
    refs = loc._wedge_inverse(bel, x, sentinel)
    assert np.isfinite(refs).all()
    assert (np.take_along_axis(tri_shape(1, refs), local[:, :1], axis=1) < 0).all()
    if order == 1:
        assert np.abs(lift_mixed(m, bel, refs)[0] - x).max() <= 1e-14
    assert (loc._violation(refs) > loc.slack).all()


# -- the straight-chord inverse is the boundary layer's one containment test


def _wedge_and_disk(o, a, b, x):
    """The reference containment test of the lifted boundary-layer element:
    signed distances into the wedge at o from the lines through oa and ob
    at least -1e-8, and |x| <= 1 + 1e-8."""
    oa, ob, d = a - o, b - o, x - o
    left = (oa[:, 0] * d[:, 1] - oa[:, 1] * d[:, 0]) / np.linalg.norm(oa, axis=1)
    right = (d[:, 0] * ob[:, 1] - d[:, 1] * ob[:, 0]) / np.linalg.norm(ob, axis=1)
    return (np.minimum(left, right) >= -1e-8) & (np.linalg.norm(x, axis=1) <= 1.0 + 1e-8)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [4, 6])
def test_straight_chord_inverse_admits_exactly_the_wedge_and_disk(n, order):
    # on every boundary-layer element: points inside it, on and just across
    # each straight edge, on and just beyond the arc, at the apex o and just
    # behind it (towards the centre, where the ray o -> x meets the circle
    # on the far side); "just" is 1e-10, which both tests admit, or 1e-4,
    # which both refuse (the slack is in reference units, the reference
    # test's 1e-8 in physical ones, so offsets in between may split them)
    m = disk_mesh(n, order)
    loc = MeshLocator(m)
    bel = lift_of(m).boundary_elements()
    _, o, a, b = loc._wedge(bel)
    rng = np.random.default_rng(3)
    lam = rng.dirichlet(np.ones(3), size=(6, len(bel)))
    inside = lift_mixed(m, np.tile(bel, 6), lam[..., 1:].reshape(-1, 2))[0].reshape(6, -1, 2)
    s = np.array([0.1, 0.5, 0.9])[:, None, None]
    chord = a + s * (b - a)
    arc = chord / np.linalg.norm(chord, axis=2, keepdims=True)
    ohat = o / np.linalg.norm(o, axis=1)[:, None]
    blocks = [(inside, 0.0)]
    for d in (0.0, 1e-10, 1e-4):
        for p, q, r in ((o, a, b), (o, b, a)):
            t = (q - p) / np.linalg.norm(q - p, axis=1)[:, None]
            normal = np.column_stack([t[:, 1], -t[:, 0]])
            normal *= -np.sign(np.vecdot(normal, r - p))[:, None]     # away from r
            blocks.append((p + s * (q - p) + d * normal, d))
        blocks += [(arc * (1.0 + d), d), (o[None] - d * ohat, d)]
    x = np.concatenate([blk for blk, _ in blocks])
    far = np.concatenate([np.full(blk.shape[:2], d == 1e-4) for blk, d in blocks]).ravel()
    reps = len(x)
    elems, x = np.tile(bel, reps), x.reshape(-1, 2)
    vertex = np.einsum("nrx,nx->nr", loc._inv[elems], x - loc._origin[elems])
    admitted = loc._violation(loc._wedge_inverse(elems, x, vertex)) <= loc.slack
    want = _wedge_and_disk(*(np.tile(p, (reps, 1)) for p in (o, a, b)), x)
    assert np.array_equal(admitted, want)
    # both sides occur: every 1e-4 offset is refused, every other point admitted
    assert np.array_equal(want, ~far)


@pytest.mark.parametrize(
    "order, want",
    [
        (1, {"points": 104105, "inversions": 219296, "forward": 25618}),
        (2, {"points": 170904, "inversions": 355418, "forward": 160902}),
    ],
)
def test_locate_work_on_the_overkill_point_sets(order, want, monkeypatch):
    # the work of locating the registry's overkill point sets at --levels 4:
    # located points, candidate inversions (each candidate of each round)
    # and Newton's forward point evaluations; a change to any of them is
    # made here on purpose and explained with the change
    counts = {"points": 0, "inversions": 0, "forward": 0}
    invert, forward = MeshLocator._invert, MeshLocator._forward

    def counted_invert(self, elems, targets):
        counts["inversions"] += len(elems)
        return invert(self, elems, targets)

    def counted_forward(self, elems, refs):
        counts["forward"] += len(elems)
        return forward(self, elems, refs)

    monkeypatch.setattr(MeshLocator, "_invert", counted_invert)
    monkeypatch.setattr(MeshLocator, "_forward", counted_forward)
    for m, pts in _overkill_point_sets(4, order):
        counts["points"] += len(MeshLocator(m).locate(pts)[0])
    assert counts == want
