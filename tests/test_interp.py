import numpy as np
import pytest

from h32fem.assembly import FeFunction, grams_of, nodal_interp_bulk, trace, zero_function
from h32fem.interp import (
    dirichlet_lift,
    dirichlet_riesz_data,
    scott_zhang,
    sz_via_dirichlet,
    winf_like_norm,
)
from h32fem.lifting import lift_of
from h32fem.meshing import build_square_mesh, disk_mesh, shared_mesh
from h32fem.solvers import solve_dirichlet_fe


def test_sz_projection_property(disk4k2, rng):
    u = FeFunction(disk4k2, rng.normal(size=disk4k2.n_nodes))
    s = scott_zhang(u, disk4k2)
    assert np.abs(s.coeffs - u.coeffs).max() < 1e-10


def test_sz_idempotent(disk4k1, rng):
    u = FeFunction(disk4k1, rng.normal(size=disk4k1.n_nodes))
    once = scott_zhang(u, disk4k1)
    twice = scott_zhang(once, disk4k1)
    assert np.abs(twice.coeffs - once.coeffs).max() < 1e-10


def test_sz_constant(disk4k2):
    one = nodal_interp_bulk(disk4k2, lambda p: np.ones(len(p)))
    assert np.abs(scott_zhang(one, disk4k2).coeffs - 1.0).max() < 1e-12


def test_sz_trace_preservation_fe(disk4k2, rng):
    u = FeFunction(disk4k2, rng.normal(size=disk4k2.n_nodes))
    s = scott_zhang(u, disk4k2)
    assert np.abs(trace(s).coeffs - trace(u).coeffs).max() < 1e-10


def test_riesz_data_defining_identity(disk4k1, rng):
    g = grams_of(disk4k1)
    u = FeFunction(disk4k1, rng.normal(size=disk4k1.n_nodes))
    f, gs = dirichlet_riesz_data(u)
    res = (g.M_bulk @ f.coeffs - g.A_bulk @ u.coeffs)[g.mesh.interior_node_ids]
    scale = max(1.0, np.abs(u.coeffs).max())
    assert np.abs(res).max() < 1e-10 * scale
    assert np.array_equal(gs.coeffs, trace(u).coeffs)


def test_riesz_data_constants_and_linears():
    m = disk_mesh(4, 1)
    uc = nodal_interp_bulk(m, lambda p: 3.0 * np.ones(len(p)))
    f, gs = dirichlet_riesz_data(uc)
    assert np.abs(f.coeffs).max() < 1e-12
    sq = build_square_mesh(4, 1)
    ux = nodal_interp_bulk(sq, lambda p: p[:, 0])
    fx, _ = dirichlet_riesz_data(ux)
    assert np.abs(fx.coeffs).max() < 1e-12


def test_dirichlet_lift_of_constant(disk4k1):
    one = nodal_interp_bulk(disk4k1, lambda p: np.ones(len(p)))
    sol = dirichlet_lift(one)
    assert sol.mesh.h <= disk4k1.h / 4 + 1e-12
    assert np.abs(sol.coeffs - 1.0).max() < 1e-10


def test_sz_via_dirichlet_constant(disk4k1):
    one = nodal_interp_bulk(disk4k1, lambda p: np.ones(len(p)))
    out = sz_via_dirichlet(one)
    assert np.abs(out.coeffs - 1.0).max() < 1e-8


def test_sz_via_dirichlet_trace_error_decays():
    # trace preservation holds up to the overkill surrogate error, which
    # shrinks under refinement
    errs = []
    for n in (2, 4):
        m = disk_mesh(n, 1)
        u = solve_dirichlet_fe(
            nodal_interp_bulk(m, lambda p: np.sin(3.0 * p[:, 0])),
            trace(nodal_interp_bulk(m, lambda p: p[:, 0] * p[:, 1])),
        )
        out = sz_via_dirichlet(u)
        errs.append(np.abs(trace(out).coeffs - trace(u).coeffs).max())
    assert errs[0] < 0.05
    assert errs[1] < 0.6 * errs[0]


def test_winf_like_norm_values(disk4k1):
    zero = zero_function(disk4k1)
    assert winf_like_norm(zero) == 0.0
    c = nodal_interp_bulk(disk4k1, lambda p: -2.0 * np.ones(len(p)))
    assert abs(winf_like_norm(c) - 2.0) < 1e-8


def test_ritz_system_symmetry(square4, square4_grams, trace_selector):
    R = trace_selector(square4)
    K = square4_grams.A_bulk + R.T @ square4_grams.M_surf @ R
    assert abs(K - K.T).max() < 1e-13


def test_circle_points_locate_on_the_curved_edge():
    # a point of the exact circle pulls back through the lifted mesh onto the
    # discrete boundary at its own polar angle, since the lift restricted to
    # a curved edge is the radial projection; there the trace matrix reads
    # the surface function
    from h32fem.basis import TRI_EDGES, tri_shape
    from h32fem.interp import _evaluation_matrix
    from h32fem.lifting import MeshLocator
    from h32fem.meshing import geometry_map

    m = disk_mesh(5, 2)
    angles = np.linspace(-np.pi, np.pi, 40, endpoint=False)
    loc = MeshLocator(m)
    elems, refs = loc.locate(np.column_stack([np.cos(angles), np.sin(angles)]))
    # on a curved element the vertex opposite the curved edge has no weight;
    # a point at a boundary vertex may land in an element touching only it
    le = lift_of(m).curved_edge[elems]
    lam = tri_shape(1, refs)
    on = np.nonzero(le >= 0)[0]
    opposite = 3 - np.array(TRI_EDGES)[le[on]].sum(axis=1)
    assert len(on) >= 30
    assert np.abs(lam[on, opposite]).max() <= 1e-12
    assert np.all(lam[le < 0].max(axis=1) >= 1.0 - 1e-12)
    discrete = geometry_map(m, elems, refs)[0]
    dtheta = np.arctan2(discrete[:, 1], discrete[:, 0]) - angles
    assert np.abs(np.angle(np.exp(1j * dtheta))).max() <= 1e-12
    # the trace of x on the discrete boundary is cos(theta) up to geometry error
    gs = trace(nodal_interp_bulk(m, lambda p: p[:, 0]))
    vals = _evaluation_matrix(m, elems, refs)[:, m.boundary_node_ids] @ gs.coeffs
    assert np.abs(vals - np.cos(angles)).max() < 5e-3


def test_overkill_path_on_square(rng):
    # identity-lift branch: Dirichlet lift and quasi-interpolant on the square
    sq = build_square_mesh(2, 1)
    gx = trace(nodal_interp_bulk(sq, lambda p: p[:, 0]))
    u = solve_dirichlet_fe(zero_function(sq), gx)
    sol = dirichlet_lift(u)
    # harmonic linear data: the overkill solution is x as well
    fine_x = sol.mesh.nodes[:, 0]
    assert np.abs(sol.coeffs - fine_x).max() < 1e-9
    out = sz_via_dirichlet(u, sol=sol)
    assert np.abs(out.coeffs - u.coeffs).max() < 1e-8


def _scott_zhang_per_cell(v, mesh):
    """The per-cell Scott-Zhang loop the batched operator replaced, as a reference."""
    from h32fem.assembly import bulk_quad_data, surface_quad_data
    from h32fem.basis import tri_edge_ref_points, tri_shape
    from h32fem.quadrature import default_degree

    degree = default_degree(mesh.order) + 2
    kind = np.zeros(mesh.n_nodes, dtype=bool)
    cell = np.full(mesh.n_nodes, -1)
    local = np.full(mesh.n_nodes, -1)
    for f, face in enumerate(mesh.boundary_faces):
        for i, node in enumerate(face):
            if cell[node] < 0:
                kind[node], cell[node], local[node] = True, f, i
    for e, conn in enumerate(mesh.elements):
        for i, node in enumerate(conn):
            if cell[node] < 0:
                kind[node], cell[node], local[node] = False, e, i
    is_fe = hasattr(v, "coeffs")
    qd, sd = bulk_quad_data(mesh, degree), surface_quad_data(mesh, degree)
    coeffs = np.zeros(mesh.n_nodes)
    psi, ws = sd["psi"], sd["rule"].weights
    for f in np.unique(cell[kind]):
        speed = sd["speed"][f]
        G = np.einsum("q,qi,qj,q->ij", ws, psi, psi, speed)
        if is_fe:
            ref = tri_edge_ref_points(mesh.face_local_edge[f], sd["rule"].points)
            fv = tri_shape(mesh.order, ref) @ v.coeffs[mesh.elements[mesh.face_elem[f]]]
        else:
            fv = np.asarray(v(sd["pts"][f]), dtype=float)
        dual = np.linalg.solve(G, np.einsum("q,q,q,qi->i", ws, speed, fv, psi))
        for i, node in enumerate(mesh.boundary_faces[f]):
            if kind[node] and cell[node] == f and local[node] == i:
                coeffs[node] = dual[i]
    phi, wq = qd["phi"], qd["rule"].weights
    for e in np.unique(cell[~kind]):
        det = qd["det"][e]
        G = np.einsum("q,qi,qj,q->ij", wq, phi, phi, det)
        if is_fe:
            ev = phi @ v.coeffs[mesh.elements[e]]
        else:
            ev = np.asarray(v(qd["pts"][e]), dtype=float)
        dual = np.linalg.solve(G, np.einsum("q,q,q,qi->i", wq, det, ev, phi))
        for i, node in enumerate(mesh.elements[e]):
            if not kind[node] and cell[node] == e and local[node] == i:
                coeffs[node] = dual[i]
    return coeffs


@pytest.mark.parametrize(
    "mesh", [disk_mesh(3, 1), disk_mesh(3, 2), build_square_mesh(3, 2)],
    ids=["disk_k1", "disk_k2", "square_k2"],
)
def test_batched_sz_matches_per_cell_loop(mesh, rng):
    u = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    rough = lambda p: np.sign(np.sin(7.0 * p[:, 0]) + np.cos(5.0 * p[:, 1])) + 0.5 * p[:, 0]
    for v in (u, rough):
        ref = _scott_zhang_per_cell(v, mesh)
        got = scott_zhang(v, mesh).coeffs
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_sz_refuses_an_fe_function_of_another_mesh(rng):
    # a 1.1x-scaled copy has the same tables but other geometry; the result
    # would claim to live on it while being computed from u's values
    from h32fem.meshing import Mesh

    m = disk_mesh(4, 1)
    scaled = Mesh(1.1 * m.nodes, m.elements, 1, "disk")
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    with pytest.raises(ValueError, match="another mesh"):
        scott_zhang(u, scaled)


def _lifted_source_load_per_call(f_h):
    """The per-call rule-point assembly the cached source matrix replaced, as a
    reference: the lifted source at the located fine rule points, weighted by
    w det, tested against the fine basis and scattered with bincount."""
    from h32fem.assembly import bulk_quad_data
    from h32fem.interp import _evaluation_matrix, overkill_mesh
    from h32fem.lifting import locator_of

    mesh = f_h.mesh
    fine = overkill_mesh(mesh)
    qd = bulk_quad_data(fine)
    S = _evaluation_matrix(mesh, *locator_of(mesh).locate(qd["pts"].reshape(-1, 2)))
    fv = (S @ f_h.coeffs).reshape(qd["det"].shape)
    loc = (qd["rule"].weights * qd["det"] * fv) @ qd["phi"]
    return np.bincount(fine.elements.ravel(), loc.ravel(), minlength=fine.n_nodes)


@pytest.mark.parametrize(
    "mesh", [disk_mesh(3, 1), disk_mesh(3, 2), build_square_mesh(3, 1)],
    ids=["disk_k1", "disk_k2", "square_k1"],
)
def test_source_matrix_matches_per_call_assembly(mesh, rng):
    from h32fem.interp import _source_matrix

    f = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    ref = _lifted_source_load_per_call(f)
    got = _source_matrix(mesh) @ f.coeffs
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sz_calls_a_callable_once(disk4k2):
    calls = []

    def v(p):
        calls.append(len(p))
        return np.cos(p[:, 0]) * p[:, 1]

    scott_zhang(v, disk4k2)
    assert len(calls) == 1


def test_sz_via_dirichlet_locates_only_while_building(monkeypatch):
    from h32fem.lifting import MeshLocator

    located = []
    locate = MeshLocator.locate
    monkeypatch.setattr(
        MeshLocator, "locate", lambda self, pts: located.append(len(pts)) or locate(self, pts)
    )
    m = disk_mesh(3, 1)
    u = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) + p[:, 1] ** 2)
    first = sz_via_dirichlet(u)
    built = len(located)
    assert built > 0
    second = sz_via_dirichlet(u)
    assert len(located) == built
    assert np.array_equal(first.coeffs, second.coeffs)


def test_overkill_locators_use_the_meshes_own_lifts():
    # the overkill mesh is the ladder's shared mesh of that size, and every
    # mesh has one locator, which reads the same cached lift as everything
    # else on that mesh
    from h32fem.interp import overkill_key, overkill_mesh
    from h32fem.lifting import locator_of

    m = disk_mesh(3, 1)
    fine = overkill_mesh(m)
    assert fine is shared_mesh(*overkill_key(("disk", 3, 1)))
    assert locator_of(fine) is locator_of(shared_mesh("disk", 12, 1))
    assert locator_of(fine).lift is lift_of(fine)
    assert locator_of(m).lift is lift_of(m)


@pytest.mark.parametrize("order", [1, 2])
def test_overkill_mesh_is_the_stored_mesh_four_times_finer(order):
    from h32fem.experiments import get_mesh
    from h32fem.interp import overkill_mesh

    assert overkill_mesh(get_mesh("disk", 4, order)) is get_mesh("disk", 16, order)


def test_overkill_mesh_refuses_a_refinement_that_keeps_h(monkeypatch):
    from h32fem import interp

    mesh = disk_mesh(3, 1)
    monkeypatch.setattr(interp, "shared_mesh", lambda kind, n, order: mesh)
    with pytest.raises(RuntimeError, match="did not reduce h"):
        interp.overkill_mesh(mesh)
