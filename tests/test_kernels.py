"""The setup kernels against the einsum contractions and dict loops they replace.

The bulk records store the inverse Jacobians J^{-1} at the rule points and
the shared reference gradients; each element contraction applies J^{-T} to
the reference gradients and is checked against the einsum over physical
basis gradients in the (ne, m, nb, 2) layout, kept here as the oracle. The
lifted record and Gram set are checked against the per-pair pullback
quadrature, with the lifted Jacobians from `lift_mixed` at every rule
point, and byte for byte against a full-mesh lifted record. The sparse SPD
factor is checked against spsolve on each kind of matrix it factors, and
the vectorized edge table against the per-edge dict loops of the mesh
builder.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from h32fem import meshing
from h32fem.assembly import (
    FeFunction,
    _bulk_forms,
    _scatter,
    _surface_elements,
    bulk_quad_data,
    eval_on_elements,
    gradient_pairing_load,
    grams_of,
    surface_quad_data,
)
from h32fem.basis import TRI_EDGES, tri_shape, tri_shape_grad
from h32fem.lifting import lift_mixed, lift_of
from h32fem.meshing import (
    BOUNDARY_MIDNODE_BIAS,
    BOUNDARY_MIDNODE_BIAS_CAP,
    _inverse_2x2,
    _spd_solver,
    batched_geometry,
    build_square_mesh,
    disk_mesh,
)
from h32fem.norms import spectral_decomp
from h32fem.quadrature import default_degree, triangle_rule
from h32fem.studies import multilinear_gradient_integral

RTOL = 1e-13


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


def old_gradients(data, mesh):
    """Physical basis gradients in the former (ne, m, nb, 2) layout."""
    dphi = tri_shape_grad(mesh.order, data["rule"].points)
    jac = data["jac"]
    return np.matmul(dphi, _inverse_2x2(jac)[0])


@pytest.fixture(scope="module", params=[1, 2])
def case(request):
    mesh = disk_mesh(3, request.param)
    qd = bulk_quad_data(mesh)
    _, jac, _ = batched_geometry(mesh, qd["rule"].points)
    return mesh, qd, old_gradients({"rule": qd["rule"], "jac": jac}, mesh)


def lifted_rule_data(mesh, rule):
    """Lifted Jacobians and determinants at every element's rule points, point by point."""
    m = len(rule)
    elems, refs = np.repeat(np.arange(mesh.n_elements), m), np.tile(rule.points, (mesh.n_elements, 1))
    jac = lift_mixed(mesh, elems, refs)[1].reshape(-1, m, 2, 2)
    return {"rule": rule, "jac": jac, "det": np.linalg.det(jac)}


def coefficients(mesh, *shape):
    return np.random.default_rng(3).standard_normal((mesh.n_nodes,) + shape)


def test_jinv_is_the_inverse_of_the_jacobians(case):
    mesh, qd, _ = case
    _, jac, _ = batched_geometry(mesh, qd["rule"].points)
    assert np.array_equal(qd["jinv"], _inverse_2x2(jac)[0])
    # the lifted record's: the plain ones, the boundary layer's lifted
    lifted = bulk_quad_data(mesh, lifted=True)["jinv"]
    assert_close(lifted, _inverse_2x2(lifted_rule_data(mesh, qd["rule"])["jac"])[0])
    assert np.array_equal(qd["dphi"], tri_shape_grad(mesh.order, qd["rule"].points))


def test_element_grams_match_einsum(case):
    mesh, qd, old = case
    w, phi, det = qd["rule"].weights, qd["phi"], qd["det"]
    Me = np.einsum("q,qi,qj,eq->eij", w, phi, phi, det)
    Ae = np.einsum("q,eqix,eqjx,eq->eij", w, old, old, det)
    g = grams_of(mesh)
    # the assembled matrices are the scattered element matrices
    conn = mesh.elements
    for E, A in ((Me, g.M_bulk), (Ae, g.A_bulk)):
        dense = np.zeros((mesh.n_nodes, mesh.n_nodes))
        np.add.at(dense, (conn[:, :, None], conn[:, None, :]), E)
        assert_close(A.toarray(), dense)


@pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
def test_eval_on_elements_matches_einsum(case, shape):
    mesh, qd, old = case
    u = FeFunction(mesh, coefficients(mesh, *shape))
    local = u.coeffs[mesh.elements]
    vals, grads = eval_on_elements(u)
    assert_close(vals, np.einsum("qb,eb...->eq...", qd["phi"], local))
    assert_close(grads, np.einsum("eqbx,eb...->eqx...", old, local))


def test_gradient_pairing_load_matches_einsum(case):
    mesh, qd, old = case
    z = FeFunction(mesh, coefficients(mesh, 2))
    zq = eval_on_elements(z)[0]
    w, det = qd["rule"].weights, qd["det"]
    loc = np.einsum("q,eq,eqx,eqbx->eb", w, det, zq, old)
    want = np.zeros(mesh.n_nodes)
    np.add.at(want, mesh.elements.ravel(), loc.ravel())
    assert_close(gradient_pairing_load(zq, mesh), want)


def test_lifted_contractions_match_einsum(case):
    mesh, qd, old = case
    data = lifted_rule_data(mesh, qd["rule"])
    gp = old_gradients(data, mesh)
    wq, det = data["rule"].weights, data["det"]
    z, w = FeFunction(mesh, coefficients(mesh)), FeFunction(mesh, coefficients(mesh)[::-1].copy())
    gz = np.einsum("eqbx,eb->eqx", gp, z.coeffs[mesh.elements])
    gw = np.einsum("eqbx,eb->eqx", gp, w.coeffs[mesh.elements])
    a_l = np.einsum("q,eq,eqx,eqx->", wq, det, gz, gw)
    vz, vw = (np.einsum("qb,eb->eq", qd["phi"], f.coeffs[mesh.elements]) for f in (z, w))
    m_l = np.einsum("q,eq,eq,eq->", wq, det, vz, vw)
    gl = grams_of(mesh, lifted=True)
    assert abs(z.coeffs @ (gl.A_bulk @ w.coeffs) - a_l) <= RTOL * abs(a_l)
    assert abs(z.coeffs @ (gl.M_bulk @ w.coeffs) - m_l) <= RTOL * abs(m_l)
    dot = lambda g1, g2: np.einsum("eqx,eqx->eq", g1, g2)
    want = np.einsum("q,eq,eq->", wq, det, dot(gz, gw))
    got = multilinear_gradient_integral([z, w], dot, bulk_quad_data(mesh, lifted=True))
    assert abs(got - want) <= RTOL * abs(want)


# -- the lifted record against the full-mesh lifted record it replaced -------------


def full_mesh_lifted_record(mesh):
    """The lifted bulk record with every array from `LiftMap.geometry` of all
    elements, in the plain record's memory layout."""
    rule = triangle_rule(default_degree(mesh.order))
    pts, jac, det = lift_of(mesh).geometry(rule.points)
    jinv = np.empty_like(bulk_quad_data(mesh)["jinv"])
    jinv[...] = _inverse_2x2(jac)[0]
    return {
        "rule": rule,
        "phi": tri_shape(mesh.order, rule.points),
        "dphi": tri_shape_grad(mesh.order, rule.points),
        "pts": pts,
        "det": det,
        "jinv": jinv,
    }


def full_mesh_lifted_grams(mesh, qd):
    """The four lifted forms as `assemble_grams` forms them from that record."""
    Mse, Ase = _surface_elements(surface_quad_data(mesh, lifted=True))
    nbd = len(mesh.boundary_node_ids)
    return (*_bulk_forms(mesh, qd), _scatter(Mse, mesh.surface_faces, nbd),
            _scatter(Ase, mesh.surface_faces, nbd))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind, order", [("disk", 1), ("disk", 2), ("square", 1), ("square", 2)])
def test_lifted_record_is_byte_equal_to_the_full_mesh_one(kind, order):
    # on the square the boundary layer is empty
    mesh = disk_mesh(6, order) if kind == "disk" else build_square_mesh(4, order)
    want, got = full_mesh_lifted_record(mesh), bulk_quad_data(mesh, lifted=True)
    assert got.keys() == want.keys()
    for key in ("phi", "dphi", "pts", "det", "jinv"):
        assert same_bytes(got[key], want[key]) and got[key].strides == want[key].strides, key
    for shape in [(), (2,), (2, 2)]:
        u = FeFunction(mesh, coefficients(mesh, *shape))
        for a, b in zip(eval_on_elements(u, got), eval_on_elements(u, want)):
            assert same_bytes(a, b)
    gl = grams_of(mesh, lifted=True)
    for name, F in zip(("M_bulk", "A_bulk", "M_surf", "A_surf"), full_mesh_lifted_grams(mesh, want)):
        F_got = getattr(gl, name)
        assert all(same_bytes(getattr(F_got, a), getattr(F, a)) for a in ("indptr", "indices", "data")), name


# -- sparse SPD factorization ---------------------------------------------------


def spd_matrices(mesh, R):
    """One matrix of each kind the solvers factor; R is the mesh's trace selector."""
    g = grams_of(mesh)
    ids = mesh.interior_node_ids
    sb = spectral_decomp(mesh)
    ss = spectral_decomp(mesh, "surface")
    return {
        "pencil": sb.K + sb.shifts[0] * sb.M,
        "surface_pencil": ss.K + ss.shifts[-1] * ss.M,
        "interior_stiffness": g.A_bulk[np.ix_(ids, ids)],
        "robin": g.A_bulk + R.T @ g.M_surf @ R,
        "interior_mass": g.M_bulk[np.ix_(ids, ids)],
    }


@pytest.mark.parametrize("order", [1, 2])
def test_spd_solver_matches_spsolve(order, trace_selector):
    rng = np.random.default_rng(0)
    mesh = disk_mesh(4, order)
    for name, A in spd_matrices(mesh, trace_selector(mesh)).items():
        b = rng.standard_normal(A.shape[0])
        solve = _spd_solver(A)
        want = spla.spsolve(A.tocsc(), b)
        assert np.abs(solve(b) - want).max() <= 1e-11 * np.abs(want).max(), name
        lu = solve.__self__
        # symmetric ordering with diagonal pivots, all positive (SPD)
        assert np.array_equal(lu.perm_r, lu.perm_c), name
        assert lu.U.diagonal().min() > 0.0, name


# -- edge table -------------------------------------------------------------------


def old_boundary_directed_edges(tris):
    seen = {}
    for conn in tris:
        for a, b in TRI_EDGES:
            key = (min(conn[a], conn[b]), max(conn[a], conn[b]))
            seen[key] = seen.get(key, 0) + 1
    out = []
    for conn in tris:
        for a, b in TRI_EDGES:
            key = (min(conn[a], conn[b]), max(conn[a], conn[b]))
            if seen[key] == 1:
                out.append((conn[a], conn[b]))
    return out


def old_add_midside_nodes(nodes, tris, boundary_edges, project_to_circle):
    bset = {(min(a, b), max(a, b)) for a, b in boundary_edges}
    nodes = list(map(tuple, nodes))
    mid_of = {}

    def midnode(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid_of:
            if project_to_circle and key in bset:
                pa, pb = np.array(nodes[key[0]]), np.array(nodes[key[1]])
                chord = np.linalg.norm(pb - pa)
                t = 0.5 + min(BOUNDARY_MIDNODE_BIAS_CAP, BOUNDARY_MIDNODE_BIAS * chord)
                p = (1.0 - t) * pa + t * pb
                p = p / np.linalg.norm(p)
            else:
                p = 0.5 * (np.array(nodes[a]) + np.array(nodes[b]))
            mid_of[key] = len(nodes)
            nodes.append(tuple(p))
        return mid_of[key]

    elems = []
    for conn in tris:
        mids = [midnode(conn[a], conn[b]) for a, b in TRI_EDGES]
        elems.append(tuple(conn) + tuple(mids))
    return np.array(nodes), np.array(elems, dtype=np.int64), mid_of


def old_face_adjacency(elements, faces):
    lookup = {}
    for e, conn in enumerate(elements):
        for le, (a, b) in enumerate(TRI_EDGES):
            lookup[(conn[a], conn[b])] = (e, le)
    fe = np.empty(len(faces), dtype=np.int64)
    fl = np.empty(len(faces), dtype=np.int64)
    for i, f in enumerate(faces):
        fe[i], fl[i] = lookup[(f[0], f[1])]
    return fe, fl


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "kind,n", [("disk", n) for n in range(2, 9)] + [("square", n) for n in (2, 3, 5)]
)
@pytest.mark.parametrize("order", [1, 2])
def test_edge_table_matches_dict_loops(kind, n, order):
    mesh = disk_mesh(n, order) if kind == "disk" else build_square_mesh(n, order)
    # the vertex mesh both builders start from
    tris = mesh.elements[:, :3]
    nodes = mesh.nodes[: tris.max() + 1]
    bedges = old_boundary_directed_edges(tris)
    if order == 1:
        want_nodes, want_elems = nodes, tris
        faces = np.array(bedges, dtype=np.int64)
    else:
        want_nodes, want_elems, mid_of = old_add_midside_nodes(nodes, tris, bedges, kind == "disk")
        faces = np.array([(a, b, mid_of[(min(a, b), max(a, b))]) for a, b in bedges], dtype=np.int64)
    fe, fl = old_face_adjacency(want_elems, faces)
    assert same_bytes(mesh.nodes, want_nodes)
    assert same_bytes(mesh.elements, want_elems)
    assert same_bytes(mesh.boundary_faces, faces)
    assert same_bytes(mesh.face_elem, fe)
    assert same_bytes(mesh.face_local_edge, fl)


@pytest.mark.parametrize("kind,n", [("disk", 6), ("square", 3)])
def test_k2_mesh_builds_its_edge_table_once(monkeypatch, kind, n):
    # the order-2 upgrade numbers the midside nodes from the table, and the
    # mesh then names each edge by its midside node (the bytes of the result
    # are pinned by test_edge_table_matches_dict_loops)
    calls = []
    table = meshing._edge_table
    monkeypatch.setattr(meshing, "_edge_table", lambda *args: calls.append(1) or table(*args))
    disk_mesh(n, 2) if kind == "disk" else build_square_mesh(n, 2)
    assert len(calls) == 1
