"""FE functions and assembly of the four Gram forms.

Bulk forms are the L2 and Dirichlet pairings over the (possibly curved)
triangulation; surface forms are their analogues on the discrete boundary
curve, with the surface gradient realized as the tangential derivative
along each (curved) boundary face. Surface DOFs are the boundary nodes in
ascending bulk-node order; surface basis functions are traces of the bulk
ones, so trace extraction is pure index gathering. Quadrature records,
plain and lifted, are cached on the mesh; lifted ones are boundary-layer sized.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (
    TRI_TANGENTS,
    edge_shape,
    edge_shape_deriv,
    tri_edge_ref_points,
    tri_shape,
    tri_shape_grad,
)
from .lifting import lift_mixed, lift_of
from .meshing import _cached, _inverse_2x2, batched_geometry, geometry_map
from .quadrature import default_degree, edge_rule, triangle_rule

BULK = "bulk"
BULK0 = "bulk0"
SURFACE = "surface"


@dataclass
class FeFunction:
    """Coefficient vector over a nodal Lagrange basis.

    coeffs has shape (n,) for scalars or (n, 2) for 2-vector fields, with n
    the bulk node count (bulk spaces) or the boundary node count (surface).
    """

    mesh: object
    coeffs: np.ndarray
    space: str = BULK

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        n = len(self.mesh.boundary_node_ids) if self.space == SURFACE else self.mesh.n_nodes
        if self.coeffs.shape[0] != n:
            raise ValueError(
                f"coefficient length {self.coeffs.shape[0]} does not match space {self.space} ({n})"
            )
        if self.space == BULK0:
            bdry = self.coeffs[self.mesh.boundary_node_ids]
            if np.any(bdry != 0.0):
                raise ValueError("bulk0 function has nonzero boundary coefficients")

    @property
    def arity(self):
        return 1 if self.coeffs.ndim == 1 else self.coeffs.shape[1]

    def scaled(self, alpha):
        return FeFunction(self.mesh, alpha * self.coeffs, self.space)


def zero_function(mesh, space=BULK):
    n = len(mesh.boundary_node_ids) if space == SURFACE else mesh.n_nodes
    return FeFunction(mesh, np.zeros(n), space)


# -- quadrature-point caches ------------------------------------------------


def bulk_quad_data(mesh, degree=None, lifted=False):
    """Shared per-mesh data at triangle rule points, of the mesh's elements or,
    lifted, of their lifts onto the exact domain (`lifting.lift_of(mesh)`);
    cached per mesh and degree.

    The plain record is a dict with rule, phi (m, nb), pts (ne, m, 2), det
    (ne, m) and the physical basis gradients as rows, gphys (ne, m, 2, nb):
    gphys[e, q, x] holds d(phi_b)/dx_x of every local basis function b, so
    gradients of element coefficients are one matmul (`_contract`). The lift
    moves the boundary layer bl = `lift_of(mesh).boundary_elements()` only:
    the lifted record has pts and det with the bl rows lifted, and no gphys
    but the lifted rows of bl, gphys_bl (see `_on_gradient_rows`). Every
    mesh passes through here before anything is integrated on it: an
    inverted element is refused.
    """
    if degree is None:
        degree = default_degree(mesh.order)
    return _cached(mesh, ("bulk", degree, lifted), lambda: _bulk_quad_data(mesh, degree, lifted))


def _integrate(qd, vals):
    """Integral of vals (ne, m), given at the rule points of the bulk record qd."""
    return float(np.einsum("q,eq,eq->", qd["rule"].weights, qd["det"], vals))


def _bulk_quad_data(mesh, degree, lifted):
    rule = triangle_rule(degree)
    if lifted:
        bl = lift_of(mesh).boundary_elements()
        pts, jac, det = lift_of(mesh).geometry(rule.points, bl)
    else:
        pts, jac, det = batched_geometry(mesh, rule.points)
    if (det <= 0.0).any():
        raise RuntimeError("nonpositive Jacobian during assembly")
    gphys = _grad_rows(tri_shape_grad(mesh.order, rule.points), jac)
    if not lifted:
        return {"rule": rule, "phi": tri_shape(mesh.order, rule.points), "pts": pts, "det": det,
                "gphys": gphys}
    # off the boundary layer the lift is the identity: the plain rows
    plain = bulk_quad_data(mesh, degree)
    full = {key: plain[key].copy() for key in ("pts", "det")}
    full["pts"][bl], full["det"][bl] = pts, det
    return {"rule": rule, "phi": plain["phi"], **full, "bl": bl, "gphys_bl": gphys}


def _grad_rows(dphi, jac):
    """Physical basis gradients (ne, m, 2, nb) from reference ones dphi (m, nb, 2)
    and the Jacobians jac (ne, m, 2, 2) of the map from the reference cell.

    d(phi_b)/dx_x = sum_r dxi_r/dx_x d(phi_b)/dxi_r: the rows J^{-T} dphi^T.
    """
    inv, _ = _inverse_2x2(jac)
    return np.matmul(inv.swapaxes(-1, -2), dphi.transpose(0, 2, 1))


def _contract(rows, local):
    """rows @ local on every element, as one batched matmul on reshaped views.

    rows: (m, nb) shared by all elements (basis values), or per element
    (ne, *r, nb) (e.g. gradient rows (ne, m, 2, nb)); local: (ne, nb, *t)
    element coefficients. Returns (ne, m, *t) or (ne, *r, *t).
    """
    (ne, nb), t = local.shape[:2], local.shape[2:]
    loc = local.reshape(ne, nb, -1)
    if rows.ndim == 2:
        # one GEMM over all elements and components
        out = (loc.swapaxes(1, 2).reshape(-1, nb) @ rows.T).reshape(ne, -1, len(rows))
        return out.swapaxes(1, 2).reshape((ne, len(rows)) + t)
    return np.matmul(rows.reshape(ne, -1, nb), loc).reshape(rows.shape[:-1] + t)


def _on_gradient_rows(qd, mesh, kernel, *args):
    """kernel(gphys, *args), element by element (row e of the result from row
    e of gphys and of each arg), on the gradient rows of the bulk record qd.
    On a lifted record: on the plain record's rows, then the bl rows of the
    result replaced by the kernel on the lifted rows gphys_bl."""
    if "gphys" in qd:
        return kernel(qd["gphys"], *args)
    out = kernel(bulk_quad_data(mesh, qd["rule"].degree)["gphys"], *args)
    bl = qd["bl"]
    if len(bl):
        out[bl] = kernel(qd["gphys_bl"], *(a[bl] for a in args))
    return out


def surface_quad_data(mesh, degree=None, lifted=False):
    """Per-boundary-face data at edge rule points: curve points, velocity,
    speed, bases. The curve is the geometry map (lifted: `lifting.lift_mixed`)
    at the faces' edge points; each record is cached like bulk_quad_data."""
    if degree is None:
        degree = default_degree(mesh.order)
    return _cached(mesh, ("surf", degree, lifted), lambda: _surface_quad_data(mesh, degree, lifted))


def _surface_quad_data(mesh, degree, lifted):
    rule = edge_rule(degree)
    nf, m = len(mesh.face_elem), len(rule.points)
    # the faces' edge points as (element, reference point) pairs
    edges = np.repeat(mesh.face_local_edge, m)
    refs = tri_edge_ref_points(edges, np.tile(rule.points, nf))
    pts, jac = (lift_mixed if lifted else geometry_map)(mesh, np.repeat(mesh.face_elem, m), refs)
    vel = np.einsum("nxr,nr->nx", jac, TRI_TANGENTS[edges]).reshape(nf, m, 2)  # curve velocity
    pts = pts.reshape(nf, m, 2)
    speed = np.linalg.norm(vel, axis=-1)
    psi = edge_shape(mesh.order, rule.points)
    dpsi = edge_shape_deriv(mesh.order, rule.points)
    return {"rule": rule, "psi": psi, "dpsi": dpsi, "pts": pts, "vel": vel, "speed": speed}


# -- Gram matrices ----------------------------------------------------------


@dataclass
class GramSet:
    """Assembled bilinear forms of a mesh; its DOF sets are the mesh's own."""

    mesh: object
    M_bulk: sp.csr_matrix
    A_bulk: sp.csr_matrix
    M_surf: sp.csr_matrix
    A_surf: sp.csr_matrix
    # upper bounds on the largest eigenvalue of (M + A, M), bulk and surface;
    # None on the lifted set, whose forms no fractional operator is built from
    bulk_eig_bound: float
    surf_eig_bound: float


def _eig_bound(Me, Ae):
    """max over elements of lambda_max(M_e + A_e, M_e).

    The Rayleigh quotient of the assembled pencil is a ratio of sums of
    element quotients, so this bounds its largest eigenvalue (Wathen 1987),
    on every DOF subset too. Each M_e is SPD (positive-weight rules with
    enough points), so lambda(M_e + A_e, M_e) = 1 + eig(L^-1 A_e L^-T).
    """
    L = np.linalg.cholesky(Me)
    X = np.linalg.solve(L, Ae)
    S = np.linalg.solve(L, np.swapaxes(X, 1, 2))
    return 1.0 + float(np.linalg.eigvalsh(S).max())


def _scatter(ne_mats, conn, n):
    rows, cols = np.broadcast_arrays(conn[:, :, None], conn[:, None, :])
    return sp.coo_matrix((ne_mats.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()


def grams_of(mesh, lifted=False):
    """The default-degree GramSet of a mesh, or lifted the forms of the lifted
    basis on the exact domain (`lifting.lift_of(mesh)`); each assembled once
    and cached."""
    return _cached(mesh, ("grams", lifted), lambda: assemble_grams(mesh, lifted))


def assemble_grams(mesh, lifted=False):
    """The four Gram forms from bulk_quad_data/surface_quad_data (lifted, if asked)."""
    qd = bulk_quad_data(mesh, lifted=lifted)
    w, phi, det = qd["rule"].weights, qd["phi"], qd["det"]
    nb = phi.shape[1]
    Me = det @ (w[:, None, None] * phi[:, :, None] * phi[:, None, :]).reshape(len(w), -1)
    Me = Me.reshape(-1, nb, nb)
    wdet = np.repeat(w * det, 2, axis=1)[:, :, None]
    def stiffness(gphys, wdet):
        G = gphys.reshape(len(gphys), -1, nb)  # rows (point, direction)
        return _contract(G.swapaxes(1, 2), wdet * G)
    Ae = _on_gradient_rows(qd, mesh, stiffness, wdet)
    M = _scatter(Me, mesh.elements, mesh.n_nodes)
    A = _scatter(Ae, mesh.elements, mesh.n_nodes)

    sd = surface_quad_data(mesh, lifted=lifted)
    ws, psi, dpsi, speed = sd["rule"].weights, sd["psi"], sd["dpsi"], sd["speed"]
    Mse = np.einsum("q,qi,qj,fq->fij", ws, psi, psi, speed)
    # tangential derivative: psi'(t)/|c'(t)|, measure |c'(t)| dt
    Ase = np.einsum("q,qi,qj,fq->fij", ws, dpsi, dpsi, 1.0 / speed)
    bids = mesh.boundary_node_ids
    Ms = _scatter(Mse, mesh.surface_faces, len(bids))
    As = _scatter(Ase, mesh.surface_faces, len(bids))

    return GramSet(
        mesh=mesh,
        M_bulk=M,
        A_bulk=A,
        M_surf=Ms,
        A_surf=As,
        bulk_eig_bound=None if lifted else _eig_bound(Me, Ae),
        surf_eig_bound=None if lifted else _eig_bound(Mse, Ase),
    )


# -- evaluation and interpolation -------------------------------------------


def eval_on_elements(u, qd=None):
    """Values and gradients of a bulk FE function at the points of a quadrature
    record (by default the mesh's bulk_quad_data; with the lifted record, of
    the lift u o Lambda^{-1} at the lifted points).

    Returns (values, grads) with shapes (ne, m[, arity]) and (ne, m, 2[, arity]).
    """
    qd = qd or bulk_quad_data(u.mesh)
    local = u.coeffs[u.mesh.elements]  # (ne, nb[, arity])
    return _contract(qd["phi"], local), _on_gradient_rows(qd, u.mesh, _contract, local)


def nodal_interp_bulk(mesh, v):
    """Nodal interpolant: coefficients are v at the physical node positions."""
    return FeFunction(mesh, _eval_pointwise(v, mesh.nodes), BULK)


def nodal_interp_surface(mesh, v):
    return FeFunction(mesh, _eval_pointwise(v, mesh.nodes[mesh.boundary_node_ids]), SURFACE)


def _eval_pointwise(v, pts):
    """v called once on all (n, 2) points; it must return (n,) or (n, d) values."""
    vals = np.asarray(v(pts), dtype=float)
    if vals.ndim not in (1, 2) or len(vals) != len(pts):
        raise ValueError(f"field returned values of shape {vals.shape} for {len(pts)} points")
    return vals


def trace(u):
    """Surface function whose coefficients are u at the boundary nodes."""
    if u.space == SURFACE:
        raise ValueError("trace expects a bulk function")
    return FeFunction(u.mesh, u.coeffs[u.mesh.boundary_node_ids], SURFACE)
