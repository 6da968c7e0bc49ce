import numpy as np
import pytest

from h32fem.assembly import bulk_quad_data, nodal_interp_bulk
from h32fem.basis import tri_edge_ref_points, tri_ref_nodes, tri_shape
from h32fem.lifting import (
    MeshLocator,
    build_lift_map,
    grad_lambda_inf_error,
    lift_mixed,
    lift_rule_data,
)
from h32fem.meshing import build_square_mesh, disk_mesh, geometry_map


@pytest.fixture(scope="module")
def lifted(disk4k2, disk4k2_lift):
    return disk4k2, disk4k2_lift


def _values_at(u, elems, refs):
    """u at per-point (element, reference point) pairs."""
    return np.einsum("nb,nb->n", tri_shape(u.mesh.order, refs), u.coeffs[u.mesh.elements[elems]])


def test_identity_on_interior_elements(lifted):
    m, lm = lifted
    interior = np.nonzero(lm.curved_edge < 0)[0][:5]
    refs = np.array([[0.2, 0.3]] * len(interior))
    pts, _, _ = lift_mixed(lm, interior, refs)
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
            p1, _, _ = lift_mixed(lm, np.array([e]), ref)
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
        pts, _, _ = lift_mixed(lm, np.full(len(ts), e), ref)
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
            lifted_pts, _, _ = lift_mixed(lm, np.full(len(ts), e), ref)
            plain, _ = geometry_map(m, e, ref)
            assert np.abs(lifted_pts - plain).max() < 1e-10


def test_jacobian_finite_difference(lifted):
    # the composite Jacobian of xi -> Lambda(F(xi)) against differences of its points
    m, lm = lifted
    e = lm.boundary_elements()[0]
    ref0 = np.array([0.31, 0.27])
    p0, J, _ = lift_mixed(lm, np.array([e]), ref0[None, :])
    eps = 1e-7
    num = np.zeros((2, 2))
    for r in range(2):
        d = np.zeros(2)
        d[r] = eps
        p1, _, _ = lift_mixed(lm, np.array([e]), (ref0 + d)[None, :])
        num[:, r] = (p1[0] - p0[0]) / eps
    assert np.abs(J[0] - num).max() < 1e-6 * np.abs(J[0]).max()


def test_grad_lambda_decay_rate():
    for k in (1, 2):
        errs, hs = [], []
        for n in (4, 8, 16, 32):
            m = disk_mesh(n, k)
            errs.append(grad_lambda_inf_error(build_lift_map(m)))
            hs.append(m.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - k) <= 0.3


def test_lift_positive_orientation(lifted):
    m, lm = lifted
    data = lift_rule_data(lm)
    assert data["det"].min() > 0.0


def test_composition_roundtrip(lifted):
    # u read back at the located lifts of its own nodes gives its nodal values
    m, lm = lifted
    u = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2)
    elems = np.repeat(np.arange(m.n_elements), m.elements.shape[1])
    refs = np.tile(tri_ref_nodes(m.order), (m.n_elements, 1))
    lifted_nodes, _, _ = lift_mixed(lm, elems, refs)
    back = _values_at(u, *MeshLocator(lm).locate(lifted_nodes))
    assert np.abs(back - u.coeffs[m.elements.ravel()]).max() < 1e-12


def test_locator_roundtrip(lifted, rng):
    m, lm = lifted
    loc = MeshLocator(lm)
    r = np.sqrt(rng.uniform(0, 1, 300)) * 0.999
    th = rng.uniform(0, 2 * np.pi, 300)
    P = np.column_stack([r * np.cos(th), r * np.sin(th)])
    elems, refs = loc.locate(P)
    back, _, _ = lift_mixed(lm, elems, refs)
    assert np.abs(back - P).max() < 1e-9



def test_locator_tries_every_candidate_before_extra_starts(lifted, monkeypatch):
    # the rule points of a finer k=2 disk in the lifted 4-ring k=2 disk: every
    # candidate starts from its closed-form vertex-triangle inverse, and Newton
    # runs only on boundary-layer candidates, each point until it converges,
    # within three forward evaluations per located point
    m, lm = lifted
    pts = bulk_quad_data(disk_mesh(6, 2))["pts"].reshape(-1, 2)
    loc = MeshLocator(lm)
    newton_elems, forward_pts = [], []
    newton, forward = MeshLocator._newton, MeshLocator._forward

    def counted(self, elems, targets, refs):
        newton_elems.append(elems)
        return newton(self, elems, targets, refs)

    def counted_forward(self, elems, refs):
        forward_pts.append(len(elems))
        return forward(self, elems, refs)

    monkeypatch.setattr(MeshLocator, "_newton", counted)
    monkeypatch.setattr(MeshLocator, "_forward", counted_forward)
    elems, refs = loc.locate(pts)
    back, _, _ = lift_mixed(lm, elems, refs)
    assert np.linalg.norm(back - pts, axis=1).max() <= 1e-9
    assert MeshLocator._violation(refs).max() <= loc.tol
    newton_elems = np.concatenate(newton_elems)
    assert len(newton_elems) <= 2 * len(pts)
    assert np.all(lm.curved_edge[newton_elems] >= 0)
    assert sum(forward_pts) <= 3 * len(pts)
    assert loc.n_clamped == 0


def test_closed_form_matches_newton_on_affine_elements(lifted):
    # the closed-form inverse against Newton from the centroid on the same
    # (element, point) pairs
    m, lm = lifted
    pts = bulk_quad_data(disk_mesh(6, 2))["pts"].reshape(-1, 2)
    loc = MeshLocator(lm)
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
    loc = MeshLocator(build_lift_map(build_square_mesh(6, 2)))
    pts = bulk_quad_data(build_square_mesh(9, 2))["pts"].reshape(-1, 2)
    calls = []
    monkeypatch.setattr(MeshLocator, "_newton", lambda *args: calls.append(args))
    elems, refs = loc.locate(pts)
    assert calls == []
    assert loc.n_clamped == 0
    assert MeshLocator._violation(refs).max() <= loc.tol
    back = np.einsum("nb,nbx->nx", tri_shape(2, refs), loc.mesh.nodes[loc.mesh.elements[elems]])
    assert np.abs(back - pts).max() <= 1e-13


def test_locator_counts_clamps():
    # a point 1e-4 right of square(3, 1) lies in no element: it is clamped
    # onto the boundary edge x = 1 (by renormalized barycentrics, so not to
    # its nearest point), and the counters record it; inside points are not
    sq = build_square_mesh(3, 1)
    loc = MeshLocator(build_lift_map(sq))
    loc.locate(np.array([[0.5, 0.5], [0.2, 0.7]]))
    assert loc.n_clamped == 0 and loc.worst_clamp == 0.0
    elems, refs = loc.locate(np.array([[1.0 + 1e-4, 0.5], [0.5, 0.5]]))
    assert loc.n_clamped == 1
    assert 1e-4 <= loc.worst_clamp <= loc.slack
    p, _ = geometry_map(loc.mesh, elems[0], refs[0])
    assert abs(p[0] - 1.0) <= 1e-12 and abs(p[1] - 0.5) <= 1e-3


def test_square_lift_is_identity():
    sq = build_square_mesh(3, 2)
    lm = build_lift_map(sq)
    assert lm.is_identity
    assert len(lm.boundary_elements()) == 0
    u = nodal_interp_bulk(sq, lambda p: p[:, 0] * p[:, 1])
    pts = np.array([[0.21, 0.33], [0.8, 0.05]])
    vals = _values_at(u, *MeshLocator(lm).locate(pts))
    assert np.abs(vals - pts[:, 0] * pts[:, 1]).max() < 1e-11


@pytest.mark.parametrize("order", [1, 2])
def test_lifted_surface_forms_match_per_face_loop(order):
    # the per-face lift the batched surface data replaced, as a reference
    from h32fem.assembly import trace
    from h32fem.basis import TRI_EDGES, TRI_VERTS, edge_shape, edge_shape_deriv
    from h32fem.quadrature import default_degree, edge_rule
    from h32fem.studies import lifted_surface_forms

    m = disk_mesh(3, order)
    lm = build_lift_map(m)
    tz = trace(nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) + p[:, 1]))
    tw = trace(nodal_interp_bulk(m, lambda p: np.cos(2.0 * p[:, 1]) * p[:, 0]))
    er = edge_rule(default_degree(order))
    psi, dpsi = edge_shape(order, er.points), edge_shape_deriv(order, er.points)
    ms = asur = 0.0
    for f in range(len(m.boundary_faces)):
        e, le = m.face_elem[f], m.face_local_edge[f]
        refs = tri_edge_ref_points(le, er.points)
        _, jc, _ = lift_mixed(lm, np.full(len(refs), e), refs)
        a, b = TRI_EDGES[le]
        speed = np.linalg.norm(np.einsum("nxr,r->nx", jc, TRI_VERTS[b] - TRI_VERTS[a]), axis=1)
        zc, wc = tz.coeffs[m.surface_faces[f]], tw.coeffs[m.surface_faces[f]]
        ms += float(np.sum(er.weights * speed * (psi @ zc) * (psi @ wc)))
        asur += float(np.sum(er.weights * (dpsi @ zc) * (dpsi @ wc) / speed))
    got = lifted_surface_forms(m, lm, tz, tw)
    assert np.allclose(got, (ms, asur), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("order", [1, 2])
def test_staged_query_locates_like_one_query_of_all_candidates(order):
    # the nearest n_first candidates first, all n_candidates for the rest:
    # the same candidates in the same order as one query of all of them
    lm = build_lift_map(disk_mesh(4, order))
    pts = np.vstack([
        bulk_quad_data(disk_mesh(7, order))["pts"].reshape(-1, 2),
        lift_mixed(build_lift_map(disk_mesh(6, order)), *_boundary_rule_points(order))[0],
    ])
    staged, single = MeshLocator(lm), MeshLocator(lm)
    single.n_first = single.n_candidates
    queried = []
    tree = staged.tree

    class CountingTree:
        def query(self, x, k):
            queried.append((len(x), k))
            return tree.query(x, k=k)

    staged.tree = CountingTree()
    for chunk in (pts, pts[:7]):
        e1, r1 = staged.locate(chunk)
        e2, r2 = single.locate(chunk)
        assert np.array_equal(e1, e2) and np.array_equal(r1, r2)
    assert (staged.n_clamped, staged.worst_clamp) == (single.n_clamped, single.worst_clamp)
    (n_all, k_first), (n_rest, k_rest) = queried[:2]
    assert (n_all, k_first, k_rest) == (len(pts), staged.n_first, staged.n_candidates)
    assert 0 < n_rest < n_all / 10


def _boundary_rule_points(order):
    # edge-rule points of the boundary faces, which the lift maps onto the circle
    mesh = disk_mesh(6, order)
    t = np.linspace(0.05, 0.95, 5)
    refs = np.stack([tri_edge_ref_points(le, t) for le in mesh.face_local_edge]).reshape(-1, 2)
    return np.repeat(mesh.face_elem, len(t)), refs
