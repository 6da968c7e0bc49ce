import numpy as np
import pytest

from h32fem.assembly import (
    FeFunction,
    bulk_quad_data,
    eval_on_elements,
    grams_of,
    nodal_interp_bulk,
    nodal_interp_surface,
    surface_quad_data,
    trace,
    zero_function,
)
from h32fem.basis import (
    TRI_TANGENTS,
    edge_shape,
    edge_shape_deriv,
    tri_edge_ref_points,
    tri_ref_nodes,
    tri_shape,
)
from h32fem.lifting import LiftMap, lift_of
from h32fem.meshing import build_square_mesh, disk_mesh, geometry_map
from h32fem.quadrature import default_degree, edge_rule


def test_constant_mass_is_area(square4, square4_grams):
    one = nodal_interp_bulk(square4, lambda p: np.ones(len(p)))
    assert abs(one.coeffs @ (square4_grams.M_bulk @ one.coeffs) - 1.0) < 1e-12


def test_linear_stiffness_energy(square4, square4_grams):
    ux = nodal_interp_bulk(square4, lambda p: p[:, 0])
    assert abs(ux.coeffs @ (square4_grams.A_bulk @ ux.coeffs) - 1.0) < 1e-12


def test_gram_symmetry_and_kernels(disk4k2):
    g = grams_of(disk4k2)
    assert abs(g.M_bulk - g.M_bulk.T).max() < 1e-14
    assert abs(g.A_bulk - g.A_bulk.T).max() < 1e-14
    one = np.ones(disk4k2.n_nodes)
    assert np.abs(g.A_bulk @ one).max() < 1e-12
    ones_s = np.ones(len(disk4k2.boundary_node_ids))
    assert np.abs(g.A_surf @ ones_s).max() < 1e-12


def test_surface_mass_is_polygon_perimeter_k1():
    m = disk_mesh(6, 1)
    g = grams_of(m)
    ones_s = np.ones(len(m.boundary_node_ids))
    n_gamma = len(m.boundary_node_ids)
    expected = 2.0 * n_gamma * np.sin(np.pi / n_gamma)
    assert abs(ones_s @ (g.M_surf @ ones_s) - expected) < 1e-12


def test_partition_of_unity(disk4k2):
    qd = bulk_quad_data(disk4k2)
    assert np.abs(qd["phi"].sum(axis=1) - 1.0).max() < 1e-13


def test_basis_delta_property():
    for order in (1, 2):
        nodes = tri_ref_nodes(order)
        vals = tri_shape(order, nodes)
        assert np.abs(vals - np.eye(len(nodes))).max() < 1e-14


def test_p3_basis_is_nodal_and_a_partition_of_unity(rng):
    # the P3 space of the Gagliardo oracle's cubic products
    nodes = tri_ref_nodes(3)
    assert len(nodes) == 10
    assert np.abs(tri_shape(3, nodes) - np.eye(10)).max() < 1e-14
    pts = rng.dirichlet(np.ones(3), size=50)[:, 1:]
    assert np.abs(tri_shape(3, pts).sum(axis=1) - 1.0).max() < 1e-14


def test_eval_constant_and_linear(square4):
    # at every rule point of every element
    u5 = nodal_interp_bulk(square4, lambda p: 5.0 * np.ones(len(p)))
    v, g = eval_on_elements(u5)
    assert np.abs(v - 5.0).max() < 1e-13 and np.abs(g).max() < 1e-13
    ulin = nodal_interp_bulk(square4, lambda p: p[:, 0] + 2.0 * p[:, 1])
    _, g = eval_on_elements(ulin)
    assert g.shape == v.shape + (2,)
    assert np.abs(g - [1.0, 2.0]).max() < 1e-13


def test_interp_reproduces_fe_function(disk4k2, rng):
    u = FeFunction(disk4k2, rng.normal(size=disk4k2.n_nodes))
    # interpolating the evaluation of u at nodes returns u
    again = nodal_interp_bulk(disk4k2, lambda p: u.coeffs.copy())
    assert np.array_equal(again.coeffs, u.coeffs)


def test_interp_zero_and_poly(square4):
    z = nodal_interp_bulk(square4, lambda p: np.zeros(len(p)))
    assert np.all(z.coeffs == 0.0)
    g = grams_of(square4)
    w = nodal_interp_bulk(square4, lambda p: 1.0 - 0.5 * p[:, 0] + p[:, 1])
    # linear exactly representable: H1 error of re-interpolation is zero
    vals, grads = eval_on_elements(w)
    qd = bulk_quad_data(square4)
    pts = qd["pts"].reshape(-1, 2)
    exact = 1.0 - 0.5 * pts[:, 0] + pts[:, 1]
    assert np.abs(vals.reshape(-1) - exact).max() < 1e-12


def test_nodal_interp_calls_the_field_once(square4):
    # a field returning the wrong shape raises, naming the shape, and a
    # raising field is not retried point by point
    n = square4.n_nodes
    with pytest.raises(ValueError, match=rf"\(1, {n}\)"):
        nodal_interp_bulk(square4, lambda p: p[:, 0][None, :])
    with pytest.raises(ValueError, match="shape"):
        nodal_interp_surface(square4, lambda p: 1.0)
    calls = []

    def failing(p):
        calls.append(len(p))
        raise ZeroDivisionError("field undefined")

    with pytest.raises(ZeroDivisionError):
        nodal_interp_bulk(square4, failing)
    assert calls == [n]
    # a vector field keeps its components
    v = nodal_interp_bulk(square4, lambda p: p[:, ::-1])
    assert v.arity == 2 and np.array_equal(v.coeffs, square4.nodes[:, ::-1])


def test_trace_and_interior_part(disk4k1, rng):
    u = FeFunction(disk4k1, rng.normal(size=disk4k1.n_nodes))
    tr = trace(u)
    assert np.array_equal(tr.coeffs, u.coeffs[disk4k1.boundary_node_ids])
    c0 = u.coeffs.copy()
    c0[disk4k1.boundary_node_ids] = 0.0
    assert np.all(trace(FeFunction(disk4k1, c0, "bulk0")).coeffs == 0.0)
    one = nodal_interp_bulk(disk4k1, lambda p: np.ones(len(p)))
    assert np.all(trace(one).coeffs == 1.0)


def test_bulk0_validation(disk4k1, rng):
    c = rng.normal(size=disk4k1.n_nodes)
    with pytest.raises(ValueError):
        FeFunction(disk4k1, c, "bulk0")
    c[disk4k1.boundary_node_ids] = 0.0
    FeFunction(disk4k1, c, "bulk0")  # now fine


def _boundary_mass_via_bulk(u):
    """Integral of u^2 over the boundary through the bulk basis and geometry
    map: each boundary face's rule points sit on its parent element's local
    edge, so nothing is shared with the surface assembly (same rule degree,
    so the two quadratures of the same curved integrand agree to rounding)."""
    mesh = u.mesh
    rule = edge_rule(default_degree(mesh.order))
    nf, nq = len(mesh.face_elem), len(rule)
    elems = np.repeat(mesh.face_elem, nq)
    edges = np.repeat(mesh.face_local_edge, nq)
    ref = tri_edge_ref_points(edges, np.tile(rule.points, nf))
    vals = np.sum(tri_shape(mesh.order, ref) * u.coeffs[mesh.elements[elems]], axis=1)
    _, jac = geometry_map(mesh, elems, ref)
    speed = np.linalg.norm(np.einsum("nxr,nr->nx", jac, TRI_TANGENTS[edges]), axis=-1)
    return float(np.sum(np.tile(rule.weights, nf) * vals**2 * speed))


def test_trace_consistency_independent_quadrature(disk4k2):
    u = nodal_interp_bulk(disk4k2, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]))
    g = grams_of(disk4k2)
    tr = trace(u)
    via_surface = tr.coeffs @ (g.M_surf @ tr.coeffs)
    via_bulk = _boundary_mass_via_bulk(u)
    assert abs(via_surface - via_bulk) < 1e-12


def _face_node_curve(mesh, degree, lifted):
    """The boundary curve coded on the face nodes: edge shapes on
    mesh.nodes[boundary_faces], plus (lifted) the lift displacement and its
    derivative along each face's reference tangent."""
    rule = edge_rule(degree)
    coords = mesh.nodes[mesh.boundary_faces]
    pts = np.einsum("qb,fbx->fqx", edge_shape(mesh.order, rule.points), coords)
    vel = np.einsum("qb,fbx->fqx", edge_shape_deriv(mesh.order, rule.points), coords)
    if lifted:
        nf, m = pts.shape[:2]
        refs = tri_edge_ref_points(np.repeat(mesh.face_local_edge, m), np.tile(rule.points, nf))
        D, dD = lift_of(mesh).displacement(np.repeat(mesh.face_elem, m), refs)
        tangent = TRI_TANGENTS[mesh.face_local_edge]
        pts = pts + D.reshape(nf, m, 2)
        vel = vel + np.einsum("fqxr,fr->fqx", dD.reshape(nf, m, 2, 2), tangent)
    return {"pts": pts, "vel": vel, "speed": np.linalg.norm(vel, axis=-1)}


@pytest.mark.parametrize("lifted", [False, True])
@pytest.mark.parametrize("extra", [0, 2])
@pytest.mark.parametrize("kind, order", [("disk", 1), ("disk", 2), ("square", 1), ("square", 2)])
def test_surface_record_is_the_face_node_curve(kind, order, extra, lifted):
    # the surface record reads the (lifted) geometry map at the faces' edge
    # points; on the face nodes the same curve, at the default degree and at
    # the degree + 2 of the Scott-Zhang moments
    mesh = disk_mesh(4, order) if kind == "disk" else build_square_mesh(4, order)
    degree = default_degree(order) + extra
    got = surface_quad_data(mesh, degree, lifted=lifted)
    for key, want in _face_node_curve(mesh, degree, lifted).items():
        assert got[key].shape == want.shape, key
        assert np.abs(got[key] - want).max() <= 1e-13 * np.abs(want).max(), key


def test_surface_interp_and_zero(disk4k1):
    z = nodal_interp_surface(disk4k1, lambda p: np.zeros(len(p)))
    assert np.all(z.coeffs == 0.0)
    s = zero_function(disk4k1, "surface")
    assert s.space == "surface" and np.all(s.coeffs == 0.0)


@pytest.mark.parametrize("order", [1, 2])
def test_lifted_record_lifts_the_boundary_layer_only(monkeypatch, order):
    # the lifted record is the plain one with the boundary layer's rows
    # replaced: the lift's displacement is taken at those rows' rule points
    # and nowhere else
    m = disk_mesh(6, order)
    bl, plain = lift_of(m).boundary_elements(), bulk_quad_data(m)
    points = []
    displacement = LiftMap.displacement

    def counting(self, elems, refs):
        points.append(len(elems))
        return displacement(self, elems, refs)

    monkeypatch.setattr(LiftMap, "displacement", counting)
    bulk_quad_data(m, lifted=True)
    assert sum(points) == len(bl) * len(plain["rule"].weights)


def test_quad_records_of_the_48_ring_mesh_are_leaner_than_gradient_rows():
    # J^{-1} (4 doubles per rule point) replaced the physical basis gradients
    # (2 nb: 12 at k=2); the two k=2 records held 48.1 MiB together with them
    # (36.9 MiB measured with J^{-1})
    m = disk_mesh(48, 2)
    held = sum(
        v.nbytes for lifted in (False, True)
        for v in bulk_quad_data(m, lifted=lifted).values() if isinstance(v, np.ndarray)
    )
    assert held < 48.1 * 2**20
