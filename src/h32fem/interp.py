"""Scott-Zhang interpolation, the Dirichlet lift, and derived operators.

The Scott-Zhang operator assigns each node the moment of the input against
the L2-dual basis of one chosen cell: the lowest-index adjacent boundary
face for boundary nodes, the lowest-index adjacent element for interior
nodes. The dual basis and the moments share one quadrature rule, so the
operator reproduces FE functions (and preserves their traces) to rounding.
It is one sparse matrix Z per mesh, from values at the moment points to
coefficients, so an interpolant is one product once its input is read there.

The Dirichlet lift transports a discrete function to the exact domain by
solving the Dirichlet problem on an overkill mesh with the lifted Riesz
source and lifted trace as data; composing back with Scott-Zhang gives the
trace-preserving quasi-interpolant whose error behaves like h^{1/2} times
the 3/2-norm data of the input.
"""

import numpy as np
import scipy.sparse as sp

from .assembly import (
    BULK,
    BULK0,
    FeFunction,
    _element_blocks,
    bulk_quad_data,
    eval_on_elements,
    grams_of,
    surface_quad_data,
    trace,
)
from .basis import tri_edge_ref_points, tri_shape
from .lifting import lift_mixed, locator_of
from .meshing import _cached, _spd_solver, shared_mesh
from .quadrature import default_degree
from .solvers import _dirichlet_solve


# -- Scott-Zhang -------------------------------------------------------------


def _sz_moments(mesh):
    """Scott-Zhang moment points and operator at rule degree default + 2, cached.

    The points are the edge-rule points of the owning faces followed by
    the rule points of the owning elements, each given as (owner element
    `elems`, reference point `refs`) and as a physical point `pts`; `eval`
    maps bulk coefficients to values there, and `Z` maps the values at all
    moment points to the interpolant's coefficients.
    """
    return _cached(mesh, "sz_moments", lambda: _build_sz_moments(mesh))


def _build_sz_moments(mesh):
    # each node's cell: its first occurrence in the boundary-face table,
    # else in the element table (row-major)
    kind = np.zeros(mesh.n_nodes, dtype=bool)
    cell = np.full(mesh.n_nodes, -1, dtype=np.int64)
    local = np.full(mesh.n_nodes, -1, dtype=np.int64)
    for use_face, table in ((False, mesh.elements), (True, mesh.boundary_faces)):
        nodes, first = np.unique(table.ravel(), return_index=True)
        kind[nodes] = use_face
        cell[nodes], local[nodes] = np.divmod(first, table.shape[1])
    degree = default_degree(mesh.order) + 2
    sd, qd = surface_quad_data(mesh, degree), bulk_quad_data(mesh, degree)
    faces, elems = np.unique(cell[kind]), np.unique(cell[~kind])
    erule, trule = sd["rule"], qd["rule"]
    owners = np.concatenate([
        np.repeat(mesh.face_elem[faces], len(erule)), np.repeat(elems, len(trule)),
    ])
    refs = np.concatenate([
        tri_edge_ref_points(
            np.repeat(mesh.face_local_edge[faces], len(erule)), np.tile(erule.points, len(faces))
        ),
        np.tile(trule.points, (len(elems), 1)),
    ])
    pts = np.concatenate([sd["pts"][faces].reshape(-1, 2), qd["pts"][elems].reshape(-1, 2)])
    # each cell's dual basis gram^{-1} (w basis)^T maps its values to its dual
    # coefficients; a node takes the row of its local index in its cell
    blocks = []
    for cells, w, basis, on in (
        (faces, erule.weights * sd["speed"][faces], sd["psi"], kind),
        (elems, trule.weights * qd["det"][elems], qd["phi"], ~kind),
    ):
        wb = w[:, :, None] * basis
        dual = np.linalg.solve(np.einsum("cqi,qj->cij", wb, basis), wb.swapaxes(1, 2))
        nodes = np.nonzero(on)[0]
        row = np.searchsorted(cells, cell[nodes])
        cols = row[:, None] * w.shape[1] + np.arange(w.shape[1])
        ij = (np.repeat(nodes, w.shape[1]), cols.ravel())
        blocks.append(sp.csr_matrix((dual[row, local[nodes]].ravel(), ij), (mesh.n_nodes, w.size)))
    E = _evaluation_matrix(mesh, owners, refs)
    return {"elems": owners, "refs": refs, "pts": pts, "eval": E, "Z": sp.hstack(blocks).tocsr()}


def scott_zhang(v, mesh):
    """Scott-Zhang quasi-interpolant of v (FE function of `mesh`, or callable)."""
    sz = _sz_moments(mesh)
    if hasattr(v, "coeffs"):
        if v.mesh is not mesh:
            raise ValueError("the FE function lives on another mesh")
        vals = sz["eval"] @ v.coeffs
    else:
        vals = np.asarray(v(sz["pts"]), dtype=float)
    return FeFunction(mesh, sz["Z"] @ vals, BULK)


# -- Riesz data and the Dirichlet lift ----------------------------------------


def dirichlet_riesz_data(u_h):
    """Source f in V_h^0 and trace g with m(f, v) = a(u, v) on V_h^0."""
    mesh = u_h.mesh
    grams = grams_of(mesh)
    ids = mesh.interior_node_ids
    solve = _cached(mesh, "mass_interior_solve", lambda: _spd_solver(grams.M_bulk[np.ix_(ids, ids)]))
    r = (grams.A_bulk @ u_h.coeffs)[ids]
    f = np.zeros(mesh.n_nodes)
    f[ids] = solve(r)
    return FeFunction(mesh, f, BULK0), trace(u_h)


# -- overkill pullbacks ----------------------------------------------------------
# Every fixed point set is located once, and each linear transfer (lifted
# source load, lifted trace, Scott-Zhang of the pulled-back lift) is one sparse
# matrix cached on the coarse mesh, so what remains per call is one product.

OVERKILL_LEVEL = 2


def _evaluation_matrix(mesh, elems, refs):
    """Sparse map: bulk coefficients -> values at (element, reference point) pairs."""
    vals = tri_shape(mesh.order, refs)
    indptr = np.arange(0, vals.size + 1, vals.shape[1])
    return sp.csr_matrix(
        (vals.ravel(), mesh.elements[elems].ravel(), indptr), shape=(len(vals), mesh.n_nodes)
    )


def overkill_key(key):
    """The store key of the overkill mesh of the shared mesh `key` = (kind, n,
    order): the same domain and order refined 2**OVERKILL_LEVEL times."""
    kind, n, order = key
    return kind, n * 2**OVERKILL_LEVEL, order


def overkill_mesh(mesh):
    """The overkill mesh of a coarse mesh: the stored mesh at its `overkill_key`."""
    # 6 n^2 elements on a disk of n rings, 2 n^2 on a square of n per side
    n = int(round(np.sqrt(mesh.n_elements / (6 if mesh.domain_kind == "disk" else 2))))
    fine = shared_mesh(*overkill_key((mesh.domain_kind, n, mesh.order)))
    if fine.h > mesh.h / 2**OVERKILL_LEVEL + 1e-12:
        raise RuntimeError("overkill refinement did not reduce h as expected")
    return fine


def _source_matrix(mesh):
    """Sparse map: coarse coefficients -> fine load vector of the lifted source:
    its values at the fine rule points (located in the lifted coarse mesh),
    weighted by w det and tested against the fine basis."""
    def build():
        fine = overkill_mesh(mesh)
        qd = bulk_quad_data(fine)
        S = _evaluation_matrix(mesh, *locator_of(mesh).locate(qd["pts"].reshape(-1, 2)))
        ne, m = qd["det"].shape
        E = _evaluation_matrix(fine, np.repeat(np.arange(ne), m), np.tile(qd["rule"].points, (ne, 1)))
        return E.T @ sp.diags((qd["rule"].weights * qd["det"]).ravel()) @ S

    return _cached(mesh, "source_matrix", build)


def _trace_matrix(mesh):
    """Sparse map: coarse surface coefficients -> values at fine boundary nodes.

    One path for the disk and the square: the fine boundary nodes lie on
    the exact boundary and are located in the lifted coarse mesh like any
    other point. The lift maps the discrete boundary onto the exact one, so
    each lands on the discrete boundary, where only the boundary nodes'
    basis functions are nonzero; the evaluation matrix keeps their columns.
    """
    def build():
        fine = overkill_mesh(mesh)
        E = _evaluation_matrix(mesh, *locator_of(mesh).locate(fine.nodes[fine.boundary_node_ids]))
        return E[:, mesh.boundary_node_ids]

    return _cached(mesh, "trace_matrix", build)


def _sz_pullback_matrix(mesh):
    """Sparse map: fine coefficients -> Scott-Zhang coefficients of the pullback.

    The moment points are known as (element, reference point), so they are
    lifted directly and only the lifted points need locating; Z maps the values.
    """
    def build():
        sz = _sz_moments(mesh)
        lifted, _ = lift_mixed(mesh, sz["elems"], sz["refs"])
        fine = overkill_mesh(mesh)
        return sz["Z"] @ _evaluation_matrix(fine, *locator_of(fine).locate(lifted))

    return _cached(mesh, "sz_pullback_matrix", build)


def dirichlet_lift(u_h):
    """Overkill surrogate of the Dirichlet lift of u_h onto the exact domain:
    an FE function on the fine mesh, standing in for the exact solver."""
    return dirichlet_lift_from_data(*dirichlet_riesz_data(u_h))


def dirichlet_lift_from_data(f_h, g_h):
    """Overkill Dirichlet solve with lifted discrete data (f_h, g_h), on the fine mesh."""
    mesh = f_h.mesh
    rhs = _source_matrix(mesh) @ f_h.coeffs
    g = _trace_matrix(mesh) @ g_h.coeffs
    return _dirichlet_solve(overkill_mesh(mesh), rhs, g)


def sz_via_dirichlet(u_h, sol=None):
    """Trace-preserving quasi-interpolant: Scott-Zhang of the pulled-back lift."""
    if sol is None:
        sol = dirichlet_lift(u_h)
    return FeFunction(u_h.mesh, _sz_pullback_matrix(u_h.mesh) @ sol.coeffs, BULK)


# -- W^{1,infty}-like norm ------------------------------------------------------


def sampled_w1inf(u, qd=None):
    """max over rule points of |u| and |grad u| for a bulk FE function, or
    for its lift onto the exact domain when qd is the lifted quadrature
    record; taken over element blocks of the record."""
    top = 0.0
    # values and gradients of each component, and their magnitudes
    for block in _element_blocks(qd or bulk_quad_data(u.mesh), 8 * 6 * u.arity):
        vals, grads = eval_on_elements(u, block)
        top = max(top, np.abs(vals).max(), np.linalg.norm(grads, axis=-1).max())
    return float(top)


def winf_like_norm(u_h):
    """Four-term sampled W^{1,infty} norm controlling the smallness criterion.

    The maximum over: u_h itself, its trace-preserving quasi-interpolant,
    the overkill Dirichlet lift on the fine mesh, and the lifted
    quasi-interpolant on the exact domain.
    """
    sol = dirichlet_lift(u_h)
    szu = sz_via_dirichlet(u_h, sol=sol)
    return max(
        sampled_w1inf(u_h),
        sampled_w1inf(szu),
        sampled_w1inf(sol),
        sampled_w1inf(szu, bulk_quad_data(u_h.mesh, lifted=True)),
    )
