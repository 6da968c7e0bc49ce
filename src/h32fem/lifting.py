"""Geometric lift from the discrete disk onto the exact disk.

The lift is a Lenoir-style blended radial projection. On elements without
a boundary face it is the identity. On a boundary-layer element with
curved edge E and opposite vertex o, a point with barycentric coordinates
(lam_o, lam_a, lam_b) is moved by

    D = (1 - lam_o) * (P(b) - b),      b = F(edge point at t = lam_b / (lam_a + lam_b)),

where F is the element's geometry map and P the radial projection onto
the unit circle. D vanishes on the two interior edges (their edge shadows
are boundary vertices, already on the circle), so the global map is
continuous, restricted to the curved edge it is exactly the radial
projection onto the circle, and its gradient deviates from the identity
by O(h^k).

MeshLocator inverts the composite map Lambda(F(xi)) pointwise: it maps
points of the exact domain to (element, reference point) pairs. Every
candidate element is first inverted in closed form through its vertex
triangle. Off the curved boundary layer the lift is the identity and the
geometry map is affine, so that inverse is exact (on the square, for every
element); on the curved boundary-layer elements it is the one start of a
vectorized Newton iteration, run per point until it converges.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .assembly import _grad_rows, surface_quad_data
from .basis import TRI_EDGES, TRI_VERTS, tri_edge_ref_points, tri_shape, tri_shape_grad
from .meshing import _cached, _inverse_2x2, _norm_2x2, batched_geometry
from .quadrature import default_degree, triangle_rule

# reference-coordinate gradients of the barycentric coordinates
_DLAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass
class LiftMap:
    mesh: object
    curved_edge: np.ndarray  # (ne,) local edge index on the boundary, -1 inside

    @property
    def is_identity(self):
        return self.mesh.domain_kind != "disk"

    def boundary_elements(self):
        return np.nonzero(self.curved_edge >= 0)[0]


def build_lift_map(mesh):
    curved = np.full(mesh.n_elements, -1, dtype=np.int64)
    if mesh.domain_kind == "disk":
        if len(np.unique(mesh.face_elem)) < len(mesh.face_elem):
            raise RuntimeError("element with two boundary faces; refine the mesh")
        curved[mesh.face_elem] = mesh.face_local_edge
    return LiftMap(mesh=mesh, curved_edge=curved)


def _barycentric(refs):
    lam = np.empty(refs.shape[:-1] + (3,))
    lam[..., 0] = 1.0 - refs[..., 0] - refs[..., 1]
    lam[..., 1] = refs[..., 0]
    lam[..., 2] = refs[..., 1]
    return lam


def _displacement(lm, elems, refs):
    """Lift displacement and its reference gradient at per-point (elem, ref).

    Returns D (n, 2) and dD/dxi (n, 2, 2); zero rows for interior elements.
    """
    mesh = lm.mesh
    n = len(elems)
    D = np.zeros((n, 2))
    dD = np.zeros((n, 2, 2))
    if lm.is_identity:
        return D, dD
    le = lm.curved_edge[elems]
    sel = np.nonzero(le >= 0)[0]
    if len(sel) == 0:
        return D, dD
    elems = np.asarray(elems)[sel]
    refs = refs[sel]
    le = le[sel]
    edge_pairs = np.array(TRI_EDGES)
    a = edge_pairs[le, 0]
    b = edge_pairs[le, 1]
    o = 3 - a - b
    lam = _barycentric(refs)
    idx = np.arange(len(sel))
    lam_a, lam_b = lam[idx, a], lam[idx, b]
    sigma = np.maximum(lam_a + lam_b, 1e-30)
    t = lam_b / sigma

    # edge shadow through the element's own geometry map
    eref = TRI_VERTS[a] * (1.0 - t)[:, None] + TRI_VERTS[b] * t[:, None]
    coords = mesh.nodes[mesh.elements[elems]]          # (n, nb, 2)
    phi = tri_shape(mesh.order, eref)                  # (n, nb)
    dphi = tri_shape_grad(mesh.order, eref)            # (n, nb, 2)
    bpt = np.einsum("nb,nbx->nx", phi, coords)
    jac = np.einsum("nbr,nbx->nxr", dphi, coords)
    tan_ref = TRI_VERTS[b] - TRI_VERTS[a]              # (n, 2)
    dbdt = np.einsum("nxr,nr->nx", jac, tan_ref)

    nrm = np.linalg.norm(bpt, axis=1)
    phat = bpt / nrm[:, None]
    disp = phat - bpt                                  # P(b) - b
    # d(P - id)/db applied to db/dt:  ((I - phat phat^T)/|b| - I) dbdt
    proj = dbdt - phat * np.einsum("nx,nx->n", phat, dbdt)[:, None]
    dPdt = proj / nrm[:, None] - dbdt

    grad_sigma = _DLAM[a] + _DLAM[b]                   # (n, 2)
    # sigma * grad(t) = grad(lam_b) - t * grad(sigma), exactly
    sg_t = _DLAM[b] - t[:, None] * grad_sigma

    D[sel] = sigma[:, None] * disp
    dD[sel] = disp[:, :, None] * grad_sigma[:, None, :] + dPdt[:, :, None] * sg_t[:, None, :]
    return D, dD


def lift_mixed(lm, elems, refs):
    """Lifted points and composite Jacobians at per-point (elem, ref) pairs.

    Returns pts (n, 2), jac (n, 2, 2) of xi -> Lambda(F(xi)), and the
    plain geometry Jacobian (n, 2, 2).
    """
    mesh = lm.mesh
    coords = mesh.nodes[mesh.elements[np.asarray(elems)]]
    phi = tri_shape(mesh.order, refs)
    dphi = tri_shape_grad(mesh.order, refs)
    base = np.einsum("nb,nbx->nx", phi, coords)
    jgeo = np.einsum("nbr,nbx->nxr", dphi, coords)
    D, dD = _displacement(lm, elems, refs)
    return base + D, jgeo + dD, jgeo


def lift_rule_data(lm, degree=None):
    """Lift data for all elements at shared rule points (cached).

    dict with: rule, pts (lifted), jac (composite, reference->Omega),
    det (of the composite), jgeo/detgeo (plain geometry), grad_lambda
    (physical gradient of the lift, (ne, m, 2, 2)).
    """
    mesh = lm.mesh
    if degree is None:
        degree = default_degree(mesh.order)
    return _cached(mesh, ("lift", degree), lambda: _lift_rule_data(lm, degree))


def _lift_rule_data(lm, degree):
    mesh = lm.mesh
    rule = triangle_rule(degree)
    m = len(rule)
    pts, jgeo, detgeo = batched_geometry(mesh, rule.points)
    jac = jgeo.copy()
    lifted = pts.copy()
    bel = lm.boundary_elements()
    if len(bel) > 0:
        elems = np.repeat(bel, m)
        refs = np.tile(rule.points, (len(bel), 1))
        D, dD = _displacement(lm, elems, refs)
        lifted[bel] += D.reshape(len(bel), m, 2)
        jac[bel] += dD.reshape(len(bel), m, 2, 2)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if det.min() <= 0.0:
        raise RuntimeError("lift map not orientation preserving at quadrature points")
    inv_geo, _ = _inverse_2x2(jgeo)
    grad_lambda = np.einsum("emxr,emrs->emxs", jac, inv_geo)
    return {
        "rule": rule,
        "pts": lifted,
        "jac": jac,
        "det": det,
        "jgeo": jgeo,
        "detgeo": detgeo,
        "grad_lambda": grad_lambda,
    }


def _lifted_shape_gradients(lm):
    """Physical gradient rows (ne, m, 2, nb) of the lifted basis at lift_rule_data's
    points, laid out like bulk_quad_data's gphys.

    Not cached: at k=2 the array is tens of MB per mesh.
    """
    data = lift_rule_data(lm)
    return _grad_rows(tri_shape_grad(lm.mesh.order, data["rule"].points), data["jac"])


def _face_ref_points(mesh, t):
    """(nfaces, m, 2) reference points of edge parameters t on each boundary face's element."""
    return np.stack([tri_edge_ref_points(le, t) for le in range(3)])[mesh.face_local_edge]


def _lifted_surface_data(lm):
    """Lifted curve speed (nf, m) at the edge-rule points of surface_quad_data (cached)."""
    return _cached(lm.mesh, "lift_surf", lambda: _lift_surface(lm))


def _lift_surface(lm):
    # the discrete curve's velocity plus the lift displacement's derivative along the edge
    mesh = lm.mesh
    sd = surface_quad_data(mesh)
    nf, m = sd["speed"].shape
    refs = _face_ref_points(mesh, sd["rule"].points).reshape(-1, 2)
    _, dD = _displacement(lm, np.repeat(mesh.face_elem, m), refs)
    tangent = np.array([TRI_VERTS[b] - TRI_VERTS[a] for a, b in TRI_EDGES])[mesh.face_local_edge]
    vel = sd["vel"] + np.einsum("fqxr,fr->fqx", dD.reshape(nf, m, 2, 2), tangent)
    return {"rule": sd["rule"], "speed": np.linalg.norm(vel, axis=-1)}


def grad_lambda_inf_error(lm):
    """max over rule points of the spectral norm of grad(Lambda) - I."""
    data = lift_rule_data(lm)
    G = data["grad_lambda"] - np.eye(2)
    return float(_norm_2x2(G).max())


# -- point location ----------------------------------------------------------


class MeshLocator:
    """Maps points of the exact domain to (element, reference coordinates).

    locate() tries the n_candidates elements with the nearest centres to
    each point in turn; the KD-tree is asked for the nearest n_first of
    every point, and for all n_candidates only of the points still
    unresolved. Every candidate is first inverted in closed form,
    xi0 = J^{-1} (x - v0) from its vertex triangle; that is exact on an
    element with an affine geometry map and no lift (every element outside
    the curved boundary layer, on the square every element). Only curved
    boundary-layer candidates then run Newton on xi -> Lambda(F(xi)), from
    xi0, each point until its own residual converges. A point that no
    candidate element contains (within tol) is clamped into its best
    candidate; points farther outside than `slack` raise. The clamp covers
    the O(h^{k+1}) slivers between a curved mesh and the exact domain;
    n_clamped counts the clamped points over all locate() calls and
    worst_clamp holds the largest barycentric violation clamped.
    """

    n_candidates = 16
    # candidates every point queries first; most points lie in their nearest
    n_first = 4
    tol = 1e-10
    slack = 1e-3

    def __init__(self, lift):
        mesh = self.mesh = lift.mesh
        self.lift = lift
        self.n_clamped = 0
        self.worst_clamp = 0.0
        centers = lift_rule_data(lift, 2)["pts"].mean(axis=1)
        self.k = min(self.n_candidates, mesh.n_elements)
        self.tree = cKDTree(centers)
        # the vertex triangle's affine map, and which elements are exactly it:
        # no curved edge and (k=2) every midside node at its edge midpoint
        verts = mesh.nodes[mesh.elements[:, :3]]
        self._origin = verts[:, 0]
        edges = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
        self._inv = _inverse_2x2(edges)[0]
        self._affine = lift.curved_edge < 0
        if mesh.order == 2:
            mids = 0.5 * (verts + verts[:, [1, 2, 0]])
            self._affine &= (mesh.nodes[mesh.elements[:, 3:]] == mids).all(axis=(1, 2))

    def _forward(self, elems, refs):
        return lift_mixed(self.lift, elems, refs)[:2]

    def _newton(self, elems, targets, refs):
        """Newton from `refs`; each point stops once its residual is below 1e-13.

        Returns the iterates and the final residual norms.
        """
        refs = np.array(refs, dtype=float)
        resid = np.zeros(len(elems))
        act = np.arange(len(elems))
        for _ in range(25):
            pts, jac = self._forward(elems[act], refs[act])
            res = targets[act] - pts
            done = np.abs(res).max(axis=1) < 1e-13
            resid[act[done]] = np.linalg.norm(res[done], axis=1)
            act, res, jac = act[~done], res[~done], jac[~done]
            if len(act) == 0:
                return refs, resid
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                inv, det = _inverse_2x2(jac)
                step = np.einsum("nrx,nx->nr", inv, res)
            # keep iterates where a curved map can degenerate from diverging
            step[np.abs(det) < 1e-300] = 0.0
            np.clip(step, -1.0, 1.0, out=step)
            refs[act] = np.clip(refs[act] + step, -2.0, 3.0)
        pts, _ = self._forward(elems[act], refs[act])
        resid[act] = np.linalg.norm(targets[act] - pts, axis=1)
        return refs, resid

    def _invert(self, elems, targets):
        """Reference points and scores; a non-converged Newton point scores as far outside."""
        refs = np.einsum("nrx,nx->nr", self._inv[elems], targets - self._origin[elems])
        curved = np.nonzero(~self._affine[elems])[0]
        resid = np.zeros(len(elems))
        if len(curved) > 0:
            refs[curved], resid[curved] = self._newton(elems[curved], targets[curved], refs[curved])
        return refs, self._violation(refs) + np.where(resid > 1e-9, np.inf, 0.0)

    @staticmethod
    def _violation(refs):
        lam = _barycentric(refs)
        return np.maximum(0.0, -lam.min(axis=-1))

    def locate(self, pts):
        """Physical points -> (element ids, reference coordinates)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = len(pts)
        elems = np.full(n, -1, dtype=np.int64)
        refs = np.zeros((n, 2))
        best_viol = np.full(n, np.inf)
        best_elem = np.zeros(n, dtype=np.int64)
        best_ref = np.zeros((n, 2))
        alive = np.arange(n)
        for r in range(self.k):
            if len(alive) == 0:
                break
            if r in (0, self.n_first):
                # the nearest n_first candidates of every point, then all of the rest's
                k = min(self.n_first, self.k) if r == 0 else self.k
                cand = self.tree.query(pts[alive], k=k)[1].reshape(len(alive), -1)
            els = cand[:, r]
            rr, viol = self._invert(els, pts[alive])
            # keep the best candidate seen for possible clamping
            upd = viol < best_viol[alive]
            ba = alive[upd]
            best_viol[ba] = viol[upd]
            best_elem[ba] = els[upd]
            best_ref[ba] = rr[upd]
            ok = viol <= self.tol
            hit = alive[ok]
            elems[hit] = els[ok]
            refs[hit] = rr[ok]
            alive, cand = alive[~ok], cand[~ok]
        if len(alive) > 0:
            if best_viol[alive].max() > self.slack:
                worst = best_viol[alive].max()
                raise RuntimeError(f"point location failed (violation {worst:.2e})")
            self.n_clamped += len(alive)
            self.worst_clamp = max(self.worst_clamp, float(best_viol[alive].max()))
            elems[alive] = best_elem[alive]
            refs[alive] = _clamp_to_triangle(best_ref[alive])
        return elems, refs


def _clamp_to_triangle(refs):
    lam = np.clip(_barycentric(refs), 0.0, None)
    lam /= lam.sum(axis=-1, keepdims=True)
    return lam[..., 1:]
