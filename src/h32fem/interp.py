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
import scipy.sparse.linalg as spla

from .assembly import (
    BULK,
    BULK0,
    FeFunction,
    assemble_grams,
    bulk_quad_data,
    eval_on_elements,
    grams_of,
    surface_quad_data,
    trace,
)
from .basis import (
    TRI_EDGES,
    TRI_VERTS,
    edge_shape,
    tri_edge_ref_points,
    tri_shape,
    tri_shape_grad,
)
from .lifting import (
    MeshLocator,
    build_lift_map,
    lift_mixed,
    lift_rule_data,
)
from .meshing import _cached, _inverse_2x2
from .quadrature import default_degree, edge_rule
from .solvers import (
    OverkillSolution,
    refined_copy,
    _interior_solver,
    _robin_solver,
)


# -- Scott-Zhang -------------------------------------------------------------


def _sz_assignment(mesh):
    """Per node: (use_face, cell id, local node index), cached on the mesh."""
    return _cached(mesh, "sz_cells", lambda: _sz_cells(mesh))


def _sz_cells(mesh):
    kind = np.zeros(mesh.n_nodes, dtype=bool)
    cell = np.full(mesh.n_nodes, -1, dtype=np.int64)
    local = np.full(mesh.n_nodes, -1, dtype=np.int64)
    for f, face in enumerate(mesh.boundary_faces):
        for i, node in enumerate(face):
            if cell[node] < 0:
                kind[node], cell[node], local[node] = True, f, i
    for e, conn in enumerate(mesh.elements):
        for i, node in enumerate(conn):
            if cell[node] < 0:
                kind[node], cell[node], local[node] = False, e, i
    return kind, cell, local


def scott_zhang(v, mesh, degree=None):
    """Scott-Zhang quasi-interpolant of v (FE function or callable)."""
    if degree is None:
        degree = default_degree(mesh.order) + 2
    kind, cell, local = _sz_assignment(mesh)
    coeffs = np.zeros(mesh.n_nodes)

    is_fe = hasattr(v, "coeffs")
    qd = bulk_quad_data(mesh, degree)
    sd = surface_quad_data(mesh, degree)

    def values_on_element(e, pts):
        if is_fe:
            return qd["phi"] @ v.coeffs[mesh.elements[e]]
        return np.asarray(v(pts), dtype=float)

    used_faces = np.unique(cell[kind & (cell >= 0)])
    psi, ws = sd["psi"], sd["rule"].weights
    for f in used_faces:
        speed = sd["speed"][f]
        G = np.einsum("q,qi,qj,q->ij", ws, psi, psi, speed)
        if is_fe:
            # restriction of the bulk function to the face through its element
            e, le = mesh.face_elem[f], mesh.face_local_edge[f]
            ref = tri_edge_ref_points(le, sd["rule"].points)
            fv = tri_shape(mesh.order, ref) @ v.coeffs[mesh.elements[e]]
        else:
            fv = np.asarray(v(sd["pts"][f]), dtype=float)
        moments = np.einsum("q,q,q,qi->i", ws, speed, fv, psi)
        dual = np.linalg.solve(G, moments)
        for node, i in zip(mesh.boundary_faces[f], range(len(moments))):
            if kind[node] and cell[node] == f and local[node] == i:
                coeffs[node] = dual[i]

    used_elems = np.unique(cell[~kind & (cell >= 0)])
    phi, wq = qd["phi"], qd["rule"].weights
    for e in used_elems:
        det = qd["det"][e]
        G = np.einsum("q,qi,qj,q->ij", wq, phi, phi, det)
        ev = values_on_element(e, qd["pts"][e])
        moments = np.einsum("q,q,q,qi->i", wq, det, ev, phi)
        dual = np.linalg.solve(G, moments)
        for i, node in enumerate(mesh.elements[e]):
            if (not kind[node]) and cell[node] == e and local[node] == i:
                coeffs[node] = dual[i]
    return FeFunction(mesh, coeffs, BULK)


# -- Riesz data and the Dirichlet lift ----------------------------------------


def dirichlet_riesz_data(u_h, grams):
    """Source f in V_h^0 and trace g with m(f, v) = a(u, v) on V_h^0."""
    mesh = grams.mesh
    ids = grams.interior_ids
    solve = _cached(
        grams, "mass_interior_solve",
        lambda: spla.factorized(grams.M_bulk[np.ix_(ids, ids)].tocsc()),
    )
    r = (grams.A_bulk @ u_h.coeffs)[ids]
    f = np.zeros(mesh.n_nodes)
    f[ids] = solve(r)
    return FeFunction(mesh, f, BULK0), trace(u_h)


class BoundaryAngleMap:
    """Inverts the boundary lift: circle angle -> point on the discrete boundary.

    The lift restricted to the discrete boundary is the radial projection,
    so a circle point pulls back to the boundary-curve point at the same
    polar angle; each face covers one monotone angular window.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        coords = mesh.nodes[mesh.boundary_faces]
        self.start = np.arctan2(coords[:, 0, 1], coords[:, 0, 0])
        self.span = np.mod(
            np.arctan2(coords[:, 1, 1], coords[:, 1, 0]) - self.start, 2.0 * np.pi
        )
        self.order = np.argsort(self.start)
        self.sorted_start = self.start[self.order]

    def locate(self, angles):
        """face ids and edge parameters t for the given circle angles."""
        th = np.asarray(angles, dtype=float)
        base = self.sorted_start[0]
        rel = np.mod(th - base, 2.0 * np.pi) + base
        idx = np.searchsorted(self.sorted_start, rel + 1e-14) - 1
        faces = self.order[np.clip(idx, 0, len(self.order) - 1)]
        t = np.empty(len(th))
        mesh = self.mesh
        coords = mesh.nodes[mesh.boundary_faces]
        for i, (f, theta) in enumerate(zip(faces, th)):
            target = np.mod(theta - self.start[f], 2.0 * np.pi)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                p = edge_shape(mesh.order, np.array([mid]))[0] @ coords[f]
                ang = np.mod(np.arctan2(p[1], p[0]) - self.start[f], 2.0 * np.pi)
                # wrapped angles compare within the face's small span
                if ang > np.pi:
                    ang -= 2.0 * np.pi
                if ang < target:
                    lo = mid
                else:
                    hi = mid
            t[i] = 0.5 * (lo + hi)
        return faces, t


def eval_surface_fe(g_h, faces, t):
    """Evaluate a surface FE function at per-face edge parameters."""
    mesh = g_h.mesh
    psi = edge_shape(mesh.order, np.asarray(t))
    return np.einsum("nb,nb->n", psi, g_h.coeffs[mesh.surface_faces[faces]])


def overkill_context(mesh, lm, level=2):
    """Fine mesh, grams, lift and locators shared by overkill operations."""
    return _cached(mesh, ("overkill", level), lambda: _overkill_context(mesh, lm, level))


def _overkill_context(mesh, lm, level):
    fine = refined_copy(mesh, 2**level)
    if fine.h > mesh.h / 2**level + 1e-12:
        raise RuntimeError("overkill refinement did not reduce h as expected")
    fine_grams = assemble_grams(fine)
    fine_lm = build_lift_map(fine)
    return {
        "fine": fine,
        "fine_grams": fine_grams,
        "fine_lm": fine_lm,
        "fine_lifted_locator": MeshLocator(fine, lift=fine_lm),
        "coarse_lifted_locator": MeshLocator(mesh, lift=lm),
        "coarse_locator": MeshLocator(mesh),
        "angle_map": BoundaryAngleMap(mesh) if mesh.domain_kind == "disk" else None,
    }


def _pullback_source_matrix(mesh, lm, ctx):
    """Sparse map: coarse coefficients -> lifted values at fine rule points.

    The fine quadrature points are fixed, so the expensive point location
    on the lifted coarse mesh happens once per (mesh, level).
    """
    if "source_matrix" in ctx:
        return ctx["source_matrix"]
    fine = ctx["fine"]
    qd = bulk_quad_data(fine)
    pts = qd["pts"].reshape(-1, 2)
    elems, refs = ctx["coarse_lifted_locator"].locate(pts)
    phi = tri_shape(mesh.order, refs)               # (npts, nb)
    cols = mesh.elements[elems]
    rows = np.repeat(np.arange(len(pts)), phi.shape[1])
    S = sp.coo_matrix(
        (phi.ravel(), (rows, cols.ravel())), shape=(len(pts), mesh.n_nodes)
    ).tocsr()
    ctx["source_matrix"] = S
    return S


def _boundary_trace_matrix(mesh, ctx):
    """Sparse map: coarse surface coefficients -> values at fine boundary nodes."""
    if "trace_interp_matrix" in ctx:
        return ctx["trace_interp_matrix"]
    fg = ctx["fine_grams"]
    bpts = ctx["fine"].nodes[fg.boundary_ids]
    faces, t = ctx["angle_map"].locate(np.arctan2(bpts[:, 1], bpts[:, 0]))
    psi = edge_shape(mesh.order, t)
    sconn = mesh.surface_faces[faces]
    rows = np.repeat(np.arange(len(bpts)), psi.shape[1])
    T = sp.coo_matrix(
        (psi.ravel(), (rows, sconn.ravel())),
        shape=(len(bpts), len(mesh.boundary_node_ids)),
    ).tocsr()
    ctx["trace_interp_matrix"] = T
    return T


def dirichlet_lift(u_h, lm, overkill_level=2):
    """Overkill surrogate of the Dirichlet lift of u_h onto the exact domain."""
    f_h, g_h = dirichlet_riesz_data(u_h, grams_of(u_h.mesh))
    return dirichlet_lift_from_data(f_h, g_h, lm, overkill_level)


def dirichlet_lift_from_data(f_h, g_h, lm, overkill_level=2):
    """Overkill Dirichlet solve with lifted discrete data (f_h, g_h)."""
    mesh = f_h.mesh
    ctx = overkill_context(mesh, lm, overkill_level)
    fine, fg = ctx["fine"], ctx["fine_grams"]

    # lifted source tested against the fine basis
    qd = bulk_quad_data(fine)
    fv = (_pullback_source_matrix(mesh, lm, ctx) @ f_h.coeffs).reshape(qd["det"].shape)
    loc = np.einsum("q,eq,eq,qb->eb", qd["rule"].weights, qd["det"], fv, qd["phi"])
    rhs_full = np.zeros(fine.n_nodes)
    np.add.at(rhs_full, fine.elements.ravel(), loc.ravel())

    # lifted trace at the fine boundary nodes (they lie on the circle)
    u = np.zeros(fine.n_nodes)
    if ctx["angle_map"] is not None:
        u[fg.boundary_ids] = _boundary_trace_matrix(mesh, ctx) @ g_h.coeffs
    else:
        # identity lift: evaluate the coarse trace through its bulk function
        bpts = fine.nodes[fg.boundary_ids]
        gb = np.zeros(mesh.n_nodes)
        gb[mesh.boundary_node_ids] = g_h.coeffs
        gfun = FeFunction(mesh, gb, BULK)
        elems, refs = ctx["coarse_locator"].locate(bpts)
        phi = tri_shape(mesh.order, refs)
        u[fg.boundary_ids] = np.einsum("nb,nb->n", phi, gfun.coeffs[mesh.elements[elems]])

    ids = fg.interior_ids
    rhs = rhs_full[ids] - (fg.A_bulk @ u)[ids]
    u[ids] = _interior_solver(fg)(rhs)
    return OverkillSolution(fine, FeFunction(fine, u, BULK), "dirichlet")


def inverse_lifted_overkill(sol, lm, overkill_level=2):
    """The overkill solution as a pointwise-evaluable function on Omega_h.

    The double point location (coarse point -> exact domain -> fine
    element) is memoized per point batch, so repeated pullbacks of
    different solutions at the same quadrature layouts cost one gather.
    """
    mesh = lm.mesh
    ctx = overkill_context(mesh, lm, overkill_level)
    fine = ctx["fine"]
    floc = ctx["fine_lifted_locator"]
    cloc = ctx["coarse_locator"]
    memo = ctx.setdefault("pullback_loc_cache", {})

    def fn(pts):
        pts = np.atleast_2d(pts)
        key = pts.tobytes()
        ent = memo.get(key)
        if ent is None:
            elems, refs = cloc.locate(pts)
            lifted, _, _ = lift_mixed(lm, elems, refs)
            felems, frefs = floc.locate(lifted)
            ent = (tri_shape(fine.order, frefs), fine.elements[felems])
            memo[key] = ent
        phi, conn = ent
        return np.einsum("nb,nb->n", phi, sol.fe.coeffs[conn])

    return fn


def sz_via_dirichlet(u_h, lm, overkill_level=2, sol=None):
    """Trace-preserving quasi-interpolant: Scott-Zhang of the pulled-back lift."""
    if sol is None:
        sol = dirichlet_lift(u_h, lm, overkill_level)
    fn = inverse_lifted_overkill(sol, lm, overkill_level)
    return scott_zhang(fn, u_h.mesh)


# -- Ritz map ------------------------------------------------------------------


def ritz_map(w, grad_w, lm, grams, degree=None):
    """Galerkin projection against the Robin form with exact-domain data.

    w and grad_w are callables on the exact domain (values and gradients);
    the right side integrals are pulled back through the lift.
    """
    mesh = grams.mesh
    if degree is None:
        degree = default_degree(mesh.order)
    data = lift_rule_data(lm, degree)
    rule, pts, jac, det = data["rule"], data["pts"], data["jac"], data["det"]
    gw = np.asarray(grad_w(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
    dphi = tri_shape_grad(mesh.order, rule.points)
    inv, _ = _inverse_2x2(jac)
    gphys = np.einsum("eqrx,qbr->eqbx", inv, dphi)
    loc = np.einsum("q,eq,eqx,eqbx->eb", rule.weights, det, gw, gphys)
    rhs = np.zeros(mesh.n_nodes)
    np.add.at(rhs, mesh.elements.ravel(), loc.ravel())

    # boundary term: integral of w against the lifted surface basis
    erule = edge_rule(degree)
    psi = edge_shape(mesh.order, erule.points)
    for f in range(len(mesh.boundary_faces)):
        e, le = mesh.face_elem[f], mesh.face_local_edge[f]
        refs = tri_edge_ref_points(le, erule.points)
        lifted, jc, _ = lift_mixed(lm, np.full(len(refs), e), refs)
        a, b = TRI_EDGES[le]
        vel = np.einsum("nxr,r->nx", jc, TRI_VERTS[b] - TRI_VERTS[a])
        speed = np.linalg.norm(vel, axis=1)
        wv = np.asarray(w(lifted), dtype=float)
        contrib = np.einsum("q,q,q,qi->i", erule.weights, speed, wv, psi)
        np.add.at(rhs, mesh.boundary_faces[f], contrib)

    return FeFunction(mesh, _robin_solver(grams)(rhs), BULK)


# -- W^{1,infty}-like norm ------------------------------------------------------


def sampled_w1inf(u, degree=None):
    """max over rule points of |u| and |grad u| for a bulk FE function."""
    vals, grads = eval_on_elements(u, degree)
    return float(max(np.abs(vals).max(), np.linalg.norm(grads, axis=-1).max()))


def sampled_w1inf_lifted(u, lm, degree=None):
    """Sampled W^{1,infty} norm of the lifted function on the exact domain."""
    data = lift_rule_data(lm, degree)
    mesh = u.mesh
    dphi = tri_shape_grad(mesh.order, data["rule"].points)
    inv, _ = _inverse_2x2(data["jac"])
    gphys = np.einsum("eqrx,qbr->eqbx", inv, dphi)
    local = u.coeffs[mesh.elements]
    grads = np.einsum("eqbx,eb->eqx", gphys, local)
    vals, _ = eval_on_elements(u, data["rule"].degree)
    return float(max(np.abs(vals).max(), np.linalg.norm(grads, axis=-1).max()))


def winf_like_norm(u_h, lm, overkill_level=2):
    """Four-term sampled W^{1,infty} norm controlling the smallness criterion.

    The maximum over: u_h itself, its trace-preserving quasi-interpolant,
    the overkill Dirichlet lift on the fine mesh, and the lifted
    quasi-interpolant on the exact domain.
    """
    sol = dirichlet_lift(u_h, lm, overkill_level)
    szu = sz_via_dirichlet(u_h, lm, overkill_level, sol=sol)
    return max(
        sampled_w1inf(u_h),
        sampled_w1inf(szu),
        sampled_w1inf(sol.fe),
        sampled_w1inf_lifted(szu, lm),
    )
