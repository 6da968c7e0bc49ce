"""The setup kernels against the einsum contractions and dict loops they replace.

Element contractions are batched matmuls on the gradient rows
(ne, m, 2, nb); each is checked against the einsum over the former
(ne, m, nb, 2) layout, kept here as the oracle. The sparse SPD factor is
checked against spsolve on each kind of matrix it factors, and the
vectorized edge table against the per-edge dict loops of the mesh builder.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from h32fem.assembly import (
    FeFunction,
    _contract,
    bulk_quad_data,
    eval_on_elements,
    grams_of,
)
from h32fem.basis import TRI_EDGES, tri_shape_grad
from h32fem.lifting import _lifted_shape_gradients, build_lift_map, lift_rule_data
from h32fem.meshing import (
    BOUNDARY_MIDNODE_BIAS,
    BOUNDARY_MIDNODE_BIAS_CAP,
    _inverse_2x2,
    _spd_solver,
    batched_geometry,
    build_square_mesh,
    disk_mesh,
)
from h32fem.norms import gradient_pairing_load, spectral_decomp, surface_spectral_decomp
from h32fem.solvers import trace_matrix
from h32fem.studies import lifted_bulk_forms, multilinear_gradient_integral

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
    lm = build_lift_map(mesh)
    qd = bulk_quad_data(mesh)
    _, jac, _ = batched_geometry(mesh, qd["rule"].points)
    return mesh, lm, qd, old_gradients({"rule": qd["rule"], "jac": jac}, mesh)


def coefficients(mesh, *shape):
    return np.random.default_rng(3).standard_normal((mesh.n_nodes,) + shape)


def test_gradient_rows_are_the_former_layout_transposed(case):
    mesh, lm, qd, old = case
    assert qd["gphys"].shape == old.shape[:2] + (2, old.shape[2])
    assert_close(qd["gphys"], old.swapaxes(-1, -2))
    lifted_old = old_gradients(lift_rule_data(lm), mesh)
    assert_close(_lifted_shape_gradients(lm), lifted_old.swapaxes(-1, -2))


def test_element_grams_match_einsum(case):
    mesh, lm, qd, old = case
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
    mesh, lm, qd, old = case
    u = FeFunction(mesh, coefficients(mesh, *shape))
    local = u.coeffs[mesh.elements]
    vals, grads = eval_on_elements(u)
    assert_close(vals, np.einsum("qb,eb...->eq...", qd["phi"], local))
    assert_close(grads, np.einsum("eqbx,eb...->eqx...", old, local))


def test_gradient_pairing_load_matches_einsum(case):
    mesh, lm, qd, old = case
    g = grams_of(mesh)
    z = FeFunction(mesh, coefficients(mesh, 2))
    zq = eval_on_elements(z)[0]
    w, det = qd["rule"].weights, qd["det"]
    loc = np.einsum("q,eq,eqx,eqbx->eb", w, det, zq, old)
    want = np.zeros(mesh.n_nodes)
    np.add.at(want, mesh.elements.ravel(), loc.ravel())
    b = gradient_pairing_load(z, g)
    assert_close(b, want)
    # the scatter adds in the order np.add.at does: bit for bit
    ne, nb = mesh.elements.shape
    mine = _contract(((w * det)[:, :, None] * zq).reshape(ne, 1, -1), qd["gphys"].reshape(ne, -1, nb))
    same = np.zeros(mesh.n_nodes)
    np.add.at(same, mesh.elements.ravel(), mine.ravel())
    assert np.array_equal(b, same)


def test_lifted_contractions_match_einsum(case):
    mesh, lm, qd, old = case
    data = lift_rule_data(lm)
    gp = old_gradients(data, mesh)
    wq, det = data["rule"].weights, data["det"]
    z, w = FeFunction(mesh, coefficients(mesh)), FeFunction(mesh, coefficients(mesh)[::-1].copy())
    gz = np.einsum("eqbx,eb->eqx", gp, z.coeffs[mesh.elements])
    gw = np.einsum("eqbx,eb->eqx", gp, w.coeffs[mesh.elements])
    a_l = np.einsum("q,eq,eqx,eqx->", wq, det, gz, gw)
    assert abs(lifted_bulk_forms(mesh, lm, z, w)[1] - a_l) <= RTOL * abs(a_l)
    dot = lambda g1, g2: np.einsum("eqx,eqx->eq", g1, g2)
    want = np.einsum("q,eq,eq->", wq, det, dot(gz, gw))
    got = multilinear_gradient_integral(mesh, [z, w], dot, lm)
    assert abs(got - want) <= RTOL * abs(want)


# -- sparse SPD factorization ---------------------------------------------------


def spd_matrices(mesh):
    """One matrix of each kind the solvers factor."""
    g = grams_of(mesh)
    ids = g.interior_ids
    sb = spectral_decomp(g)
    R = trace_matrix(g)
    ss = surface_spectral_decomp(g)
    return {
        "pencil": sb.K + sb.shifts[0] * sb.M,
        "surface_pencil": ss.K + ss.shifts[-1] * ss.M,
        "interior_stiffness": g.A_bulk[np.ix_(ids, ids)],
        "robin": g.A_bulk + R.T @ g.M_surf @ R,
        "interior_mass": g.M_bulk[np.ix_(ids, ids)],
    }


@pytest.mark.parametrize("order", [1, 2])
def test_spd_solver_matches_spsolve(order):
    rng = np.random.default_rng(0)
    for name, A in spd_matrices(disk_mesh(4, order)).items():
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


def test_face_not_on_the_boundary_is_refused():
    mesh = disk_mesh(3, 1)
    flipped = mesh.boundary_faces.copy()
    flipped[0] = flipped[0, ::-1]  # traversed against its element
    inner = mesh.boundary_faces.copy()
    inner[0] = mesh.elements[0, :2]  # an interior edge
    for faces in (flipped, inner):
        with pytest.raises(ValueError):
            type(mesh)(mesh.nodes, mesh.elements, faces, 1, "disk")
