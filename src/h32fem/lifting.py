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
the lift it is a cached function of the mesh, `locator_of(mesh)`.
Candidates come from a uniform grid whose cells are a quarter of the mean
element box in size. Every element is registered, in ascending id, in
each cell its vertex box overlaps, padded by 1e-8 and, on the boundary
layer, by the arc's sagitta 1 - |(a + b) / 2|, so a point's cell lists
every element that can contain it; locate() tries them in that order, one
vectorized round per position in the lists.

Every candidate gets a closed-form reference point, and its violation (how
far a barycentric coordinate falls below 0) is the one containment test.
Off the boundary layer the lift is the identity and the point is the
vertex triangle's inverse (`meshing._vertex_jacobians`), exact on affine
elements (on the square, every element). On the boundary layer the lift
fixes the straight edges oa and ob (D is zero there) and maps the curved
edge onto the arc from a to b, so the lifted element is the wedge at o
between the rays through a and b, cut by the closed unit disk. The
straight-chord lift x = lam_o o + (1 - lam_o) P(e(t)), e(t) on the chord
ab, maps the reference triangle onto that same set and inverts in closed
form: x lies on the segment from o to the point q where the ray o -> x
meets the unit circle, e(t) is a positive multiple of q, and
1 - lam_o = |x - o| / |q - o| (at x = o the vertex-triangle inverse is
exact). At k=1 it is the lift; at k=2 the curved edge adds a bubble term
with no closed-form inverse. Newton runs on the curved elements from the
closed-form point, where its violation is within `MeshLocator.slack`, and
is the one verifier: a candidate contains its point when Newton's residual
is at most 1e-9 and its violation at most tol. The lifted mesh covers the
exact domain, so a point is located or refused: one off the grid, or that
no candidate contains, is an error.
"""

import numpy as np

from .basis import TRI_DLAM
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

        Returns D (n, 2) and dD/dxi (n, 2, 2), views on their component
        planes like `meshing.geometry_map`'s; zero rows for interior elements.
        """
        mesh = self.mesh
        D, dD = np.zeros((2, len(elems))), np.zeros((2, 2, len(elems)))
        le = self.curved_edge[elems]
        sel = np.nonzero(le >= 0)[0]
        if len(sel) > 0:
            # the curved edge (a, b) = TRI_EDGES[le] = (le, le + 1 mod 3)
            a, b = le[sel], (le[sel] + 1) % 3
            x, y = refs[sel, 0], refs[sel, 1]
            lam = np.stack([1.0 - x - y, x, y])
            idx = np.arange(len(sel))
            lam_a, lam_b = lam[a, idx], lam[b, idx]
            sigma = np.maximum(lam_a + lam_b, 1e-30)
            t = lam_b / sigma

            # edge shadow from the curved edge's own nodes a, b and (k=2) its
            # midside node, by `basis.edge_shape` and `edge_shape_deriv`
            slots = np.stack([a, b, 3 + a])[:mesh.order + 1]
            c = mesh.nodes.T.take(mesh.elements[np.asarray(elems)[sel], slots], axis=1)
            ca, cb = c[:, 0], c[:, 1]                          # (2, n) planes
            if mesh.order == 1:
                bpt = (1.0 - t) * ca + t * cb
                dbdt = cb - ca
            else:
                cm = c[:, 2]
                bpt = 2.0 * (t - 0.5) * (t - 1.0) * ca + 2.0 * t * (t - 0.5) * cb + 4.0 * t * (1.0 - t) * cm
                dbdt = (4.0 * t - 3.0) * ca + (4.0 * t - 1.0) * cb + (4.0 - 8.0 * t) * cm

            nrm = np.sqrt(bpt[0] * bpt[0] + bpt[1] * bpt[1])
            phat = bpt / nrm
            disp = phat - bpt                                  # P(b) - b
            # d(P - id)/db applied to db/dt:  ((I - phat phat^T)/|b| - I) dbdt
            dPdt = (dbdt - phat * (phat[0] * dbdt[0] + phat[1] * dbdt[1])) / nrm - dbdt

            grad_a, grad_b = TRI_DLAM.T.take(np.stack([a, b]), axis=1).swapaxes(0, 1)
            grad_sigma = grad_a + grad_b                        # (2, n) planes
            # sigma * grad(t) = grad(lam_b) - t * grad(sigma), exactly
            sg_t = grad_b - t * grad_sigma

            D[:, sel] = sigma * disp
            dD[:, :, sel] = disp[:, None] * grad_sigma + dPdt[:, None] * sg_t
        return D.T, dD.transpose(2, 0, 1)

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
    """Maps points of the exact domain to (element, reference coordinates)
    by the one containment test of the module docstring. locate() refuses a
    point that no candidate contains within tol: it raises RuntimeError with
    the count of such points and moves none into an element.

    slack bounds the closed-form violation of every point Newton accepts.
    Such a point lies within 1e-9 (the residual) plus about 2 tol times the
    largest edge (the violation) of the lifted element, and a barycentric
    coordinate moves by about 1 / rho per unit of distance, rho the smallest
    altitude. The disks' edges are at most 3.5 rho, so the violation is at
    most about 1e-9 / rho + 7 tol: slack = 1e-6 holds it twice over for
    rho >= 2e-3 (the finest located mesh, the 32-ring overkill disk at
    --levels 5, has rho = 1/64).
    """

    tol = 1e-10
    slack = 1e-6

    def __init__(self, mesh):
        self.mesh = mesh
        lift = self.lift = lift_of(mesh)
        # the vertex triangle's affine map, and which elements are exactly it:
        # no curved edge and (k=2) every midside node at its edge midpoint
        verts = mesh.nodes[mesh.elements[:, :3]]
        self._origin = verts[:, 0]
        self._inv = _inverse_2x2(_vertex_jacobians(verts))[0]
        self._affine = lift.curved_edge < 0
        if mesh.order == 2:
            mids = 0.5 * (verts + verts[:, [1, 2, 0]])
            self._affine &= (mesh.nodes[mesh.elements[:, 3:]] == mids).all(axis=(1, 2))
        self._build_grid(verts)

    def _build_grid(self, verts):
        """Register each padded vertex box in every cell it overlaps, cells
        a quarter of the mean box in size; each cell lists its elements by id."""
        pad = np.full(len(verts), 1e-8)
        bel = self.lift.boundary_elements()
        _, _, a, b = self._wedge(bel)
        pad[bel] += 1.0 - np.linalg.norm(0.5 * (a + b), axis=1)
        lo, hi = verts.min(axis=1) - pad[:, None], verts.max(axis=1) + pad[:, None]
        self._h = 0.25 * float((hi - lo).mean())
        self._corner = lo.min(axis=0)
        first, last = (np.floor((x - self._corner) / self._h).astype(np.int64) for x in (lo, hi))
        self._shape = last.max(axis=0) + 1
        span = last - first + 1
        count = span.prod(axis=1)
        elem = np.repeat(np.arange(len(verts)), count)
        k = np.arange(len(elem)) - np.repeat(np.cumsum(count) - count, count)
        ij = first[elem] + np.column_stack([k % span[elem, 0], k // span[elem, 0]])
        cell = ij[:, 1] * self._shape[0] + ij[:, 0]
        self._cell_elems = elem[np.argsort(cell, kind="stable")]
        self._cell_start = np.concatenate(
            [[0], np.cumsum(np.bincount(cell, minlength=int(self._shape.prod())))]
        )

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

    def _wedge(self, elems):
        """Local indices of o, a, b on boundary-layer elements (the vertex
        opposite the curved edge, then the curved edge's two ends), and the
        three points (n, 2) each."""
        local = (self.lift.curved_edge[elems][:, None] + [2, 0, 1]) % 3
        o, a, b = np.moveaxis(self.mesh.nodes[self.mesh.elements[np.asarray(elems)[:, None], local]], 1, 0)
        return local, o, a, b

    def _wedge_inverse(self, elems, targets, fallback):
        """Reference points of boundary-layer candidates under the straight-chord
        lift (module docstring), exact at k=1, in the reference triangle
        exactly when the point lies in the lifted element. A row keeps
        `fallback`, the vertex-triangle inverse, where the ray o -> x is
        undefined (x = o, where it is exact) or meets the circle opposite
        the arc (x behind o, outside both triangles)."""
        local, o, a, b = self._wedge(elems)
        d = targets - o
        dist = np.linalg.norm(d, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = d / dist[:, None]
            od = np.vecdot(o, u)
            s = np.sqrt(od * od + 1.0 - np.vecdot(o, o)) - od   # |o + s u| = 1, s > 0
            q = o + s[:, None] * u
            # e(t) = a + t (b - a) a positive multiple of q: cross(e(t), q) = 0,
            # and e(t) . q > 0 (for a ray from o towards the far side of the
            # disk, the line through 0 and q meets the chord behind the origin)
            t = _det_2x2(np.stack([q, a], axis=-1)) / _det_2x2(np.stack([b - a, q], axis=-1))
            t[np.vecdot(a + t[:, None] * (b - a), q) <= 0.0] = np.nan
            w = dist / s                                        # 1 - lam_o
        lam = np.empty((len(elems), 3))
        np.put_along_axis(lam, local, np.column_stack([1.0 - w, w * (1.0 - t), w * t]), axis=1)
        refs = lam[:, 1:]
        return np.where(np.isfinite(refs).all(axis=1)[:, None], refs, fallback)

    def _invert(self, elems, targets):
        """Reference points and scores: the closed-form point's violation, and
        on curved candidates within slack Newton's from there; a candidate
        whose Newton does not converge scores as far outside."""
        refs = np.einsum("nrx,nx->nr", self._inv[elems], targets - self._origin[elems])
        layer = self.lift.curved_edge[elems] >= 0
        refs[layer] = self._wedge_inverse(elems[layer], targets[layer], refs[layer])
        # off the boundary layer a curved element has no closed-form test
        curved = np.nonzero(~self._affine[elems] & ~(layer & (self._violation(refs) > self.slack)))[0]
        resid = np.zeros(len(elems))
        if len(curved) > 0:
            refs[curved], resid[curved] = self._newton(elems[curved], targets[curved], refs[curved])
        return refs, self._violation(refs) + np.where(resid > 1e-9, np.inf, 0.0)

    @staticmethod
    def _violation(refs):
        x, y = refs[..., 0], refs[..., 1]
        return np.maximum(0.0, -np.minimum(np.minimum(1.0 - x - y, x), y))

    def _candidates(self, pts):
        """The grid cell's candidate list of each point, as slices [start, stop)
        of the cell-ordered element array; empty for a point off the grid."""
        q = (pts - self._corner) / self._h
        on = np.all((q >= 0) & (q < self._shape), axis=1)
        ij = np.floor(q[on]).astype(np.int64)
        cell = ij[:, 1] * self._shape[0] + ij[:, 0]
        start, stop = np.zeros(len(pts), np.int64), np.zeros(len(pts), np.int64)
        start[on], stop[on] = self._cell_start[cell], self._cell_start[cell + 1]
        return start, stop

    def locate(self, pts):
        """Physical points -> (element ids, reference points); refuses a point in no element."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = len(pts)
        elems = np.full(n, -1, dtype=np.int64)
        refs = np.zeros((n, 2))
        start, stop = self._candidates(pts)
        alive = np.nonzero(start < stop)[0]
        while len(alive) > 0:
            els = self._cell_elems[start[alive]]
            rr, viol = self._invert(els, pts[alive])
            ok = viol <= self.tol
            hit = alive[ok]
            elems[hit] = els[ok]
            refs[hit] = rr[ok]
            start[alive] += 1
            alive = alive[~ok & (start[alive] < stop[alive])]
        missed = np.nonzero(elems < 0)[0]
        if len(missed) > 0:
            first = pts[missed[0]].tolist()
            raise RuntimeError(f"{len(missed)} of {n} points lie in no element, e.g. {first}")
        return elems, refs


def locator_of(mesh):
    """The mesh's locator of points of the exact domain, built once per mesh."""
    return _cached(mesh, "locator", lambda: MeshLocator(mesh))
