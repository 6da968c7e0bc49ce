"""Scott-Zhang interpolation, the Dirichlet lift, and derived operators.

The Scott-Zhang operator assigns each node the moment of the input against
the L2-dual basis of one chosen cell: the lowest-index adjacent boundary
face for boundary nodes, the lowest-index adjacent element for interior
nodes. The dual basis and the moments share one quadrature rule, so the
operator reproduces FE functions (and preserves their traces) to rounding.

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
    _contract,
    bulk_quad_data,
    eval_on_elements,
    grams_of,
    surface_quad_data,
    trace,
)
from .basis import tri_shape
from .lifting import (
    MeshLocator,
    _face_ref_points,
    _lifted_shape_gradients,
    build_lift_map,
    lift_mixed,
)
from .meshing import _cached, _spd_solver
from .quadrature import default_degree
from .solvers import OverkillSolution, _dirichlet_solve, refined_copy


# -- Scott-Zhang -------------------------------------------------------------


def _sz_moments(mesh):
    """Scott-Zhang moment points and dual-basis data at rule degree default + 2, cached.

    The points are the edge-rule points of the owning faces followed by
    the rule points of the owning elements, each given as (owner element
    `elems`, reference point `refs`) and as a physical point `pts`; `eval`
    maps bulk coefficients to values there. Each of the two parts holds
    its cells' weights w (ncell, nq), basis table, Gram stack, and the
    nodes that take dual coefficient (row, local) of that part.
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
        _face_ref_points(mesh, erule.points)[faces].reshape(-1, 2),
        np.tile(trule.points, (len(elems), 1)),
    ])
    pts = np.concatenate([sd["pts"][faces].reshape(-1, 2), qd["pts"][elems].reshape(-1, 2)])
    parts = []
    for cells, w, basis, on in (
        (faces, erule.weights * sd["speed"][faces], sd["psi"], kind),
        (elems, trule.weights * qd["det"][elems], qd["phi"], ~kind),
    ):
        nodes = np.nonzero(on)[0]
        parts.append({
            "w": w,
            "basis": basis,
            "gram": np.einsum("cq,qi,qj->cij", w, basis, basis),
            "nodes": nodes,
            "row": np.searchsorted(cells, cell[nodes]),
            "local": local[nodes],
        })
    return {
        "elems": owners, "refs": refs, "pts": pts,
        "eval": _evaluation_matrix(mesh, owners, refs), "parts": parts,
    }


def _sz_from_values(mesh, sz, vals):
    """Scott-Zhang interpolant from the input's values at all moment points."""
    coeffs = np.zeros(mesh.n_nodes)
    start = 0
    for part in sz["parts"]:
        w = part["w"]
        v = vals[start:start + w.size].reshape(w.shape)
        start += w.size
        moments = np.einsum("cq,cq,qi->ci", w, v, part["basis"])
        dual = np.linalg.solve(part["gram"], moments[..., None])[..., 0]
        coeffs[part["nodes"]] = dual[part["row"], part["local"]]
    return FeFunction(mesh, coeffs, BULK)


def scott_zhang(v, mesh):
    """Scott-Zhang quasi-interpolant of v (FE function or callable)."""
    sz = _sz_moments(mesh)
    if hasattr(v, "coeffs"):
        vals = sz["eval"] @ v.coeffs
    else:
        vals = np.asarray(v(sz["pts"]), dtype=float)
    return _sz_from_values(mesh, sz, vals)


# -- Riesz data and the Dirichlet lift ----------------------------------------


def dirichlet_riesz_data(u_h, grams):
    """Source f in V_h^0 and trace g with m(f, v) = a(u, v) on V_h^0."""
    mesh = grams.mesh
    ids = grams.interior_ids
    solve = _cached(grams, "mass_interior_solve", lambda: _spd_solver(grams.M_bulk[np.ix_(ids, ids)]))
    r = (grams.A_bulk @ u_h.coeffs)[ids]
    f = np.zeros(mesh.n_nodes)
    f[ids] = solve(r)
    return FeFunction(mesh, f, BULK0), trace(u_h)


# -- overkill pullbacks ----------------------------------------------------------
# Every fixed point set is located once; what remains per call is one sparse
# product with a matrix cached on the coarse mesh. The overkill mesh refines
# the coarse one 2**OVERKILL_LEVEL times.

OVERKILL_LEVEL = 2


def _evaluation_matrix(mesh, elems, refs):
    """Sparse map: bulk coefficients -> values at (element, reference point) pairs."""
    vals = tri_shape(mesh.order, refs)
    indptr = np.arange(0, vals.size + 1, vals.shape[1])
    return sp.csr_matrix(
        (vals.ravel(), mesh.elements[elems].ravel(), indptr), shape=(len(vals), mesh.n_nodes)
    )


def overkill_context(mesh, lm):
    """Fine mesh, grams and the lifted-point locators of overkill operations."""
    return _cached(mesh, "overkill", lambda: _overkill_context(mesh, lm))


def _overkill_context(mesh, lm):
    fine = refined_copy(mesh, 2**OVERKILL_LEVEL)
    if fine.h > mesh.h / 2**OVERKILL_LEVEL + 1e-12:
        raise RuntimeError("overkill refinement did not reduce h as expected")
    return {
        "fine": fine,
        "fine_grams": grams_of(fine),
        # both locate points of the exact domain
        "fine_locator": MeshLocator(build_lift_map(fine)),
        "coarse_locator": MeshLocator(lm),
    }


def _overkill_matrix(build, mesh, lm):
    """build(mesh, lm, ctx), run once per build and cached on the coarse mesh."""
    return _cached(mesh, build, lambda: build(mesh, lm, overkill_context(mesh, lm)))


def _source_matrix(mesh, lm, ctx):
    """Sparse map: coarse coefficients -> lifted values at fine rule points."""
    pts = bulk_quad_data(ctx["fine"])["pts"].reshape(-1, 2)
    return _evaluation_matrix(mesh, *ctx["coarse_locator"].locate(pts))


def _trace_matrix(mesh, lm, ctx):
    """Sparse map: coarse surface coefficients -> values at fine boundary nodes.

    One path for the disk and the square: the fine boundary nodes lie on
    the exact boundary and are located in the lifted coarse mesh like any
    other point. The lift maps the discrete boundary onto the exact one, so
    each lands on the discrete boundary, where only the boundary nodes'
    basis functions are nonzero; the evaluation matrix keeps their columns.
    """
    bpts = ctx["fine"].nodes[ctx["fine_grams"].boundary_ids]
    E = _evaluation_matrix(mesh, *ctx["coarse_locator"].locate(bpts))
    return E[:, mesh.boundary_node_ids]


def _sz_pullback_matrix(mesh, lm, ctx):
    """Sparse map: fine coefficients -> pullback values at the SZ moment points.

    The moment points are known as (element, reference point), so they are
    lifted directly and only the lifted points need locating.
    """
    sz = _sz_moments(mesh)
    lifted, _, _ = lift_mixed(lm, sz["elems"], sz["refs"])
    return _evaluation_matrix(ctx["fine"], *ctx["fine_locator"].locate(lifted))


def dirichlet_lift(u_h, lm):
    """Overkill surrogate of the Dirichlet lift of u_h onto the exact domain."""
    f_h, g_h = dirichlet_riesz_data(u_h, grams_of(u_h.mesh))
    return dirichlet_lift_from_data(f_h, g_h, lm)


def dirichlet_lift_from_data(f_h, g_h, lm):
    """Overkill Dirichlet solve with lifted discrete data (f_h, g_h)."""
    mesh = f_h.mesh
    ctx = overkill_context(mesh, lm)
    fine, fg = ctx["fine"], ctx["fine_grams"]

    # lifted source tested against the fine basis
    qd = bulk_quad_data(fine)
    S = _overkill_matrix(_source_matrix, mesh, lm)
    fv = (S @ f_h.coeffs).reshape(qd["det"].shape)
    loc = (qd["rule"].weights * qd["det"] * fv) @ qd["phi"]
    rhs_full = np.bincount(fine.elements.ravel(), loc.ravel(), minlength=fine.n_nodes)

    # lifted trace at the fine boundary nodes
    g = _overkill_matrix(_trace_matrix, mesh, lm) @ g_h.coeffs
    return OverkillSolution(fine, _dirichlet_solve(fg, rhs_full, g))


def sz_via_dirichlet(u_h, lm, sol=None):
    """Trace-preserving quasi-interpolant: Scott-Zhang of the pulled-back lift."""
    if sol is None:
        sol = dirichlet_lift(u_h, lm)
    mesh = u_h.mesh
    vals = _overkill_matrix(_sz_pullback_matrix, mesh, lm) @ sol.fe.coeffs
    return _sz_from_values(mesh, _sz_moments(mesh), vals)


# -- W^{1,infty}-like norm ------------------------------------------------------


def sampled_w1inf(u):
    """max over rule points of |u| and |grad u| for a bulk FE function."""
    vals, grads = eval_on_elements(u)
    return float(max(np.abs(vals).max(), np.linalg.norm(grads, axis=-1).max()))


def sampled_w1inf_lifted(u, lm):
    """Sampled W^{1,infty} norm of the lifted function on the exact domain."""
    grads = _contract(_lifted_shape_gradients(lm), u.coeffs[u.mesh.elements])
    vals, _ = eval_on_elements(u)
    return float(max(np.abs(vals).max(), np.linalg.norm(grads, axis=-1).max()))


def winf_like_norm(u_h, lm):
    """Four-term sampled W^{1,infty} norm controlling the smallness criterion.

    The maximum over: u_h itself, its trace-preserving quasi-interpolant,
    the overkill Dirichlet lift on the fine mesh, and the lifted
    quasi-interpolant on the exact domain.
    """
    sol = dirichlet_lift(u_h, lm)
    szu = sz_via_dirichlet(u_h, lm, sol=sol)
    return max(
        sampled_w1inf(u_h),
        sampled_w1inf(szu),
        sampled_w1inf(sol.fe),
        sampled_w1inf_lifted(szu, lm),
    )
