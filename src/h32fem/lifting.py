"""Geometric lift from the discrete disk onto the exact disk.

The lift is a Lenoir-style blended radial projection. On elements without
a boundary face it is the identity. On a boundary-layer element with
curved edge E and opposite vertex o, a point with barycentric coordinates
(lam_o, lam_a, lam_b) = `basis.tri_shape(1, .)` is moved by

    D = (1 - lam_o) * (P(b) - b),      b = F(edge point at t = lam_b / (lam_a + lam_b)),

where F is the element's geometry map, on the curved edge the Lagrange
interpolant of the edge's own nodes (`basis.edge_shape`, `edge_shape_deriv`),
and P the radial projection onto the unit circle. D vanishes on the two
interior edges (their edge shadows are boundary vertices, already on the
circle), so the global map is continuous, restricted to the curved edge it
is exactly the radial projection onto the circle, and its gradient
deviates from the identity by O(h^k).

The triangulation fixes the lift, so it is a cached function of the mesh,
`lift_of(mesh)`. Lifted forms are the plain ones on another geometry map,
Lambda o F: `LiftMap.compose` moves F's points and Jacobians by D and its
gradient (the one place lifted Jacobians are formed), `LiftMap.geometry`
does so at shared reference points like `meshing.batched_geometry`, and the
plain code builds the lifted record and Gram set from it,
`assembly.bulk_quad_data(mesh, lifted=True)` and `grams_of(mesh, lifted=True)`,
each cached; the lifted bulk record takes `geometry` of `boundary_elements` only.
`lift_mixed` is Lambda o F at per-point (element, reference point) pairs:
`compose` applied to `meshing.geometry_map`. The lifted surface record,
`assembly.surface_quad_data(mesh, lifted=True)`, is `lift_mixed` at the
boundary faces' edge points.

MeshLocator inverts the composite map Lambda(F(xi)) pointwise: it maps
points of the exact domain to (element, reference point) pairs, and like
the lift it is a cached function of the mesh, `locator_of(mesh)`. Every
candidate element is first inverted in closed form through its vertex
triangle (`meshing._vertex_jacobians`). Off the curved boundary layer the
lift is the identity and the geometry map is affine, so that inverse is
exact (on the square, for every element); on the curved boundary-layer
elements it is the one start of a vectorized Newton iteration, run per
point until it converges, and only on points that pass a closed-form
containment pre-test. That test is exact: the lift fixes a boundary-layer
element's straight edges oa and ob (D is zero there) and maps its curved
edge onto the arc from a to b, so the lifted element is the wedge at o
between the rays through a and b, cut by the closed unit disk. Newton
accepts points up to 1e-9 (its residual) plus tol times the Jacobian off
that set, so the test's slack of 1e-8 drops none. The lifted mesh covers
the exact domain, so a point is located or refused: one that no candidate
contains is an error.
"""

import numpy as np
from scipy.spatial import cKDTree

from .basis import TRI_DLAM, TRI_EDGES, edge_shape, edge_shape_deriv, tri_shape
from .meshing import (
    _cached,
    _det_2x2,
    _inverse_2x2,
    _norm_2x2,
    _vertex_jacobians,
    batched_geometry,
    geometry_map,
)
from .quadrature import default_degree, triangle_rule


class LiftMap:
    """The lift of a mesh; `lift_of(mesh)` builds it once per mesh."""

    def __init__(self, mesh):
        self.mesh = mesh
        # (ne,) local edge index on the boundary, -1 inside
        self.curved_edge = np.full(mesh.n_elements, -1, dtype=np.int64)
        if mesh.domain_kind == "disk":
            if len(np.unique(mesh.face_elem)) < len(mesh.face_elem):
                raise RuntimeError("element with two boundary faces; refine the mesh")
            self.curved_edge[mesh.face_elem] = mesh.face_local_edge

    def boundary_elements(self):
        return np.nonzero(self.curved_edge >= 0)[0]

    def displacement(self, elems, refs):
        """Lift displacement and its reference gradient at per-point (elem, ref).

        Returns D (n, 2) and dD/dxi (n, 2, 2); zero rows for interior elements.
        """
        mesh = self.mesh
        n = len(elems)
        D = np.zeros((n, 2))
        dD = np.zeros((n, 2, 2))
        le = self.curved_edge[elems]
        sel = np.nonzero(le >= 0)[0]
        if len(sel) == 0:
            return D, dD
        le = le[sel]
        a, b = np.array(TRI_EDGES)[le].T
        lam = tri_shape(1, refs[sel])
        idx = np.arange(len(sel))
        lam_a, lam_b = lam[idx, a], lam[idx, b]
        sigma = np.maximum(lam_a + lam_b, 1e-30)
        t = lam_b / sigma

        # edge shadow from the curved edge's own nodes: a, b, then (k=2) its midside node
        slots = np.column_stack([a, b, 3 + le])[:, :mesh.order + 1]
        nodes = mesh.nodes[mesh.elements[np.asarray(elems)[sel, None], slots]]   # (n, k+1, 2)
        bpt = np.einsum("nb,nbx->nx", edge_shape(mesh.order, t), nodes)
        dbdt = np.einsum("nb,nbx->nx", edge_shape_deriv(mesh.order, t), nodes)

        nrm = np.linalg.norm(bpt, axis=1)
        phat = bpt / nrm[:, None]
        disp = phat - bpt                                  # P(b) - b
        # d(P - id)/db applied to db/dt:  ((I - phat phat^T)/|b| - I) dbdt
        proj = dbdt - phat * np.einsum("nx,nx->n", phat, dbdt)[:, None]
        dPdt = proj / nrm[:, None] - dbdt

        grad_sigma = TRI_DLAM[a] + TRI_DLAM[b]             # (n, 2)
        # sigma * grad(t) = grad(lam_b) - t * grad(sigma), exactly
        sg_t = TRI_DLAM[b] - t[:, None] * grad_sigma

        D[sel] = sigma[:, None] * disp
        dD[sel] = disp[:, :, None] * grad_sigma[:, None, :] + dPdt[:, :, None] * sg_t[:, None, :]
        return D, dD

    def compose(self, elems, refs, pts, jac):
        """Lambda o F from F: the geometry map's points pts (n, 2) and Jacobians
        jac (n, 2, 2) at per-point (elem, ref) pairs, moved by the displacement
        and its gradient. The one place lifted Jacobians are formed."""
        D, dD = self.displacement(elems, refs)
        return pts + D, jac + dD

    def geometry(self, ref_pts, elems=None):
        """Points, Jacobians and determinants of Lambda o F for all (or the
        selected) elements at shared reference points: `batched_geometry`
        with the lift composed on the boundary-layer elements only.

        Returns pts (nelem, m, 2), jac (nelem, m, 2, 2), det (nelem, m).
        """
        pts, jac, _ = batched_geometry(self.mesh, ref_pts, elems)
        rows = np.arange(self.mesh.n_elements) if elems is None else np.asarray(elems)
        bel = np.nonzero(self.curved_edge[rows] >= 0)[0]
        m = len(ref_pts)
        lp, lj = self.compose(
            np.repeat(rows[bel], m), np.tile(ref_pts, (len(bel), 1)),
            pts[bel].reshape(-1, 2), jac[bel].reshape(-1, 2, 2),
        )
        pts[bel], jac[bel] = lp.reshape(-1, m, 2), lj.reshape(-1, m, 2, 2)
        return pts, jac, _det_2x2(jac)


def lift_of(mesh):
    """The mesh's lift onto the exact domain, built once per mesh."""
    return _cached(mesh, "lift", lambda: LiftMap(mesh))


def lift_mixed(mesh, elems, refs):
    """Lifted points and composite Jacobians at per-point (elem, ref) pairs.

    Returns pts (n, 2) and jac (n, 2, 2) of xi -> Lambda(F(xi)).
    """
    return lift_of(mesh).compose(elems, refs, *geometry_map(mesh, elems, refs))


def grad_lambda_inf_error(mesh):
    """max over rule points of the spectral norm of grad(Lambda) - I.

    grad(Lambda) = (J_geo + dD) J_geo^{-1} on the boundary layer; elsewhere
    the lift is the identity and grad(Lambda) = I exactly.
    """
    lift = lift_of(mesh)
    bel = lift.boundary_elements()
    if len(bel) == 0:
        return 0.0
    rule = triangle_rule(default_degree(mesh.order))
    _, jgeo, _ = batched_geometry(mesh, rule.points, bel)
    _, jac, _ = lift.geometry(rule.points, bel)
    grad_lambda = np.einsum("emxr,emrs->emxs", jac, _inverse_2x2(jgeo)[0])
    return float(_norm_2x2(grad_lambda - np.eye(2)).max())


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
    xi0, each point until its own residual converges, and only where the
    exact closed-form pre-test `_may_contain` (a wedge cut by the unit disk)
    admits the point. locate() refuses a
    point that no candidate contains within tol: it raises RuntimeError
    with the count of such points and moves none into an element.
    """

    n_candidates = 16
    # candidates every point queries first; most points lie in their nearest
    n_first = 4
    tol = 1e-10

    def __init__(self, mesh):
        self.mesh = mesh
        lift = self.lift = lift_of(mesh)
        centers = lift.geometry(triangle_rule(2).points)[0].mean(axis=1)
        self.k = min(self.n_candidates, mesh.n_elements)
        self.tree = cKDTree(centers)
        # the vertex triangle's affine map, and which elements are exactly it:
        # no curved edge and (k=2) every midside node at its edge midpoint
        verts = mesh.nodes[mesh.elements[:, :3]]
        self._origin = verts[:, 0]
        self._inv = _inverse_2x2(_vertex_jacobians(verts))[0]
        self._affine = lift.curved_edge < 0
        if mesh.order == 2:
            mids = 0.5 * (verts + verts[:, [1, 2, 0]])
            self._affine &= (mesh.nodes[mesh.elements[:, 3:]] == mids).all(axis=(1, 2))

    def _forward(self, elems, refs):
        return lift_mixed(self.mesh, elems, refs)

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

    def _may_contain(self, elems, targets):
        """Whether each candidate can contain its target: on the boundary layer
        the wedge-and-disk test of the module docstring, elsewhere always."""
        le = self.lift.curved_edge[elems]
        local = (le[:, None] + [2, 0, 1]) % 3    # o, then the curved edge's a and b
        o, a, b = np.moveaxis(self.mesh.nodes[self.mesh.elements[elems[:, None], local]], 1, 0)
        # signed distances into the wedge from the lines through oa and ob
        oa, ob, d = a - o, b - o, targets - o
        left = _det_2x2(np.stack([oa, d], axis=-1)) / np.linalg.norm(oa, axis=1)
        right = _det_2x2(np.stack([d, ob], axis=-1)) / np.linalg.norm(ob, axis=1)
        in_disk = np.vecdot(targets, targets) <= (1.0 + 1e-8) ** 2
        return (le < 0) | ((np.minimum(left, right) >= -1e-8) & in_disk)

    def _invert(self, elems, targets):
        """Reference points and scores; a candidate that cannot contain its
        point, or whose Newton does not converge, scores as far outside."""
        refs = np.einsum("nrx,nx->nr", self._inv[elems], targets - self._origin[elems])
        curved = np.nonzero(~self._affine[elems])[0]
        resid = np.zeros(len(elems))
        can = self._may_contain(elems[curved], targets[curved])
        resid[curved[~can]] = np.inf
        curved = curved[can]
        if len(curved) > 0:
            refs[curved], resid[curved] = self._newton(elems[curved], targets[curved], refs[curved])
        return refs, self._violation(refs) + np.where(resid > 1e-9, np.inf, 0.0)

    @staticmethod
    def _violation(refs):
        return np.maximum(0.0, -tri_shape(1, refs).min(axis=-1))

    def locate(self, pts):
        """Physical points -> (element ids, reference points); refuses a point in no element."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = len(pts)
        elems = np.full(n, -1, dtype=np.int64)
        refs = np.zeros((n, 2))
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
            ok = viol <= self.tol
            hit = alive[ok]
            elems[hit] = els[ok]
            refs[hit] = rr[ok]
            alive, cand = alive[~ok], cand[~ok]
        if len(alive) > 0:
            first = pts[alive[0]].tolist()
            raise RuntimeError(f"{len(alive)} of {n} points lie in no element, e.g. {first}")
        return elems, refs


def locator_of(mesh):
    """The mesh's locator of points of the exact domain, built once per mesh."""
    return _cached(mesh, "locator", lambda: MeshLocator(mesh))
