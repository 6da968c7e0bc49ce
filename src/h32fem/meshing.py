"""Isoparametric triangulations of the unit disk and the unit square.

The disk mesh is a deterministic concentric-ring layout: ring j of n carries
6j equally spaced nodes at radius j/n, the center is a single node, and the
strips between consecutive rings are triangulated by an angular two-pointer
merge. This gives exactly 6 n^2 triangles, uniform element size (radial
spacing 1/n, arc spacing pi/(3n)), and a shape-regularity constant that is
independent of n. For order k=2 every element gets midside nodes; midside
nodes of boundary edges are projected radially onto the unit circle, which
is what makes the boundary fit isoparametric.

The square mesh is the usual diagonal split of an n x n grid of [0,1]^2 and
exists as an exact-geometry test mode: the boundary is resolved exactly and
the geometric lift is the identity there.
"""

import functools
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .basis import TRI_EDGES, tri_shape, tri_shape_grad
from .quadrature import default_degree, triangle_rule


@dataclass
class Mesh:
    """Curved order-k triangulation with node/element/boundary tables.

    nodes: (N, 2) coordinates. elements: (nelem, 3 or 6) node ids, CCW.
    boundary_faces: (nbf, 2 or 3) node ids, oriented CCW along the boundary
    (endpoint a, endpoint b, then the midside node for k=2). Surface DOFs
    are the boundary nodes in ascending order; surface_faces holds the
    boundary faces in those surface DOF ids.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_faces: np.ndarray
    order: int
    domain_kind: str
    boundary_node_ids: np.ndarray = field(init=False)
    surface_faces: np.ndarray = field(init=False)
    interior_node_ids: np.ndarray = field(init=False)
    h: float = field(init=False)
    # element id and local edge index behind each boundary face
    face_elem: np.ndarray = field(init=False)
    face_local_edge: np.ndarray = field(init=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.elements = np.asarray(self.elements, dtype=np.int64)
        self.boundary_faces = np.asarray(self.boundary_faces, dtype=np.int64)
        bset = np.unique(self.boundary_faces.ravel())
        self.boundary_node_ids = bset
        self.surface_faces = np.searchsorted(bset, self.boundary_faces)
        mask = np.ones(len(self.nodes), dtype=bool)
        mask[bset] = False
        self.interior_node_ids = np.nonzero(mask)[0]
        self.h = self._max_diameter()
        self.face_elem, self.face_local_edge = self._face_adjacency()

    # -- derived geometry ------------------------------------------------

    def _max_diameter(self):
        c = self.nodes[self.elements]  # (nelem, nb, 2)
        d = np.linalg.norm(c[:, :, None, :] - c[:, None, :, :], axis=-1)
        return float(d.max())

    def _face_adjacency(self):
        directed, keys, first, _, count = _edge_table(self.elements[:, :3], self.n_nodes)
        f = self.boundary_faces[:, :2]
        idx = np.searchsorted(keys, f.min(axis=1) * self.n_nodes + f.max(axis=1))
        idx = np.minimum(idx, len(keys) - 1)
        slot = first[idx]
        if not (count[idx] == 1).all() or not (directed[slot] == f).all():
            raise ValueError("a boundary face is not a boundary edge of its element")
        return np.divmod(slot, 3)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_nodes(self):
        return len(self.nodes)

    def element_coords(self, elems=None):
        """(nelem, nbasis, 2) geometry node coordinates."""
        if elems is None:
            return self.nodes[self.elements]
        return self.nodes[self.elements[elems]]

    def quasi_uniformity_ratio(self):
        """(max element diameter) / (min inscribed-circle diameter)."""
        v = self.nodes[self.elements[:, :3]]
        a = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        b = np.linalg.norm(v[:, 2] - v[:, 1], axis=1)
        c = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        inscribed = 4.0 * area / (a + b + c)
        return self.h / float(inscribed.min())

    # -- serialization ---------------------------------------------------

    def to_json(self):
        doc = {
            "nodes": self.nodes.tolist(),
            "elements": self.elements.tolist(),
            "boundary_faces": self.boundary_faces.tolist(),
            "order": int(self.order),
            "domain_kind": self.domain_kind,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(
            nodes=np.array(doc["nodes"], dtype=float),
            elements=np.array(doc["elements"], dtype=np.int64),
            boundary_faces=np.array(doc["boundary_faces"], dtype=np.int64),
            order=int(doc["order"]),
            domain_kind=doc["domain_kind"],
        )


# -- shared mechanisms ------------------------------------------------------
# Underscored so per-layer tracing charges their time to the calling layer.


def _cached(owner, key, build):
    """build() once per (owner, key); the result lives as long as the owner.

    The store sits on the owner (a Mesh or GramSet), so derived artifacts
    are shared by everything that holds the same object.
    """
    store = owner.__dict__.setdefault("_cache", {})
    if key not in store:
        store[key] = build()
    return store[key]


def _inverse_2x2(jac):
    """Inverses and determinants of a stack of 2x2 matrices (..., 2, 2)."""
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    adj = np.empty_like(jac)
    adj[..., 0, 0] = jac[..., 1, 1]
    adj[..., 1, 1] = jac[..., 0, 0]
    adj[..., 0, 1] = -jac[..., 0, 1]
    adj[..., 1, 0] = -jac[..., 1, 0]
    return adj / det[..., None, None], det


def _spd_solver(A):
    """Solve function (SuperLU factor's .solve) of a sparse SPD matrix: symmetric
    minimum-degree ordering of A + A^T with diagonal pivots (George & Liu 1981).
    SPD needs no pivoting, and this ordering about halves the fill of COLAMD's."""
    return spla.splu(
        A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    ).solve


def _norm_2x2(a):
    """Spectral norms of a stack of 2x2 matrices (..., 2, 2), in closed form.

    A = [[p, q], [r, s]] splits into the rotation-scaling part with entries
    (p + s, r - q)/2 and the reflection-scaling part with (p - s, r + q)/2;
    sigma_max is the sum of their moduli. Only non-negative terms are added,
    so it keeps full relative precision also when sigma_1 ~ sigma_2, where
    the Frobenius/determinant formula loses half the digits.
    """
    p, q, r, s = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    return 0.5 * (np.hypot(p + s, r - q) + np.hypot(p - s, r + q))


# -- geometry map ----------------------------------------------------------


def geometry_map(mesh, elem, ref_pt):
    """Physical point and Jacobian of the order-k geometry map.

    ref_pt may be a single (2,) point or an (m, 2) batch; returns arrays of
    matching shape: point(s) (.., 2) and Jacobian(s) (.., 2, 2).
    """
    if not 0 <= elem < mesh.n_elements:
        raise IndexError(f"invalid element id {elem}")
    ref = np.atleast_2d(ref_pt)
    coords = mesh.nodes[mesh.elements[elem]]  # (nb, 2)
    phi = tri_shape(mesh.order, ref)          # (m, nb)
    dphi = tri_shape_grad(mesh.order, ref)    # (m, nb, 2)
    pts = phi @ coords
    jac = np.einsum("mbr,bx->mxr", dphi, coords)
    if np.ndim(ref_pt) == 1:
        return pts[0], jac[0]
    return pts, jac


def batched_geometry(mesh, ref_pts, elems=None):
    """Points and Jacobians for all (or selected) elements at shared ref points.

    Returns pts (nelem, m, 2), jac (nelem, m, 2, 2), det (nelem, m).
    """
    coords = mesh.element_coords(elems)       # (ne, nb, 2)
    phi = tri_shape(mesh.order, ref_pts)      # (m, nb)
    dphi = tri_shape_grad(mesh.order, ref_pts)
    m, nb, _ = dphi.shape
    pts = phi @ coords
    # rows (point, reference direction) of dphi times coords: jac[e, m, x, r]
    jac = (dphi.transpose(0, 2, 1).reshape(2 * m, nb) @ coords).reshape(-1, m, 2, 2)
    jac = jac.swapaxes(-1, -2)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    return pts, jac, det


def _check_not_inverted(mesh):
    rule = triangle_rule(default_degree(mesh.order))
    _, _, det = batched_geometry(mesh, rule.points)
    if det.min() <= 0.0:
        raise RuntimeError("mesh has an inverted element (nonpositive Jacobian)")


# -- disk mesh -------------------------------------------------------------


def _ring_start(j):
    return 1 + 3 * j * (j - 1) if j >= 1 else 0


def _disk_vertices(n_rings):
    pts = [np.zeros((1, 2))]
    for j in range(1, n_rings + 1):
        ang = 2.0 * np.pi * np.arange(6 * j) / (6 * j)
        r = j / n_rings
        pts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    return np.vstack(pts)


def _disk_triangles(n_rings):
    tris = []
    # center fan
    s1 = _ring_start(1)
    for i in range(6):
        tris.append((0, s1 + i, s1 + (i + 1) % 6))
    # strips
    for j in range(1, n_rings):
        mi, mo = 6 * j, 6 * (j + 1)
        si, so = _ring_start(j), _ring_start(j + 1)
        i = o = 0
        while i < mi or o < mo:
            adv_outer = o < mo and (i == mi or (o + 1) * mi <= (i + 1) * mo)
            if adv_outer:
                tris.append((so + o % mo, so + (o + 1) % mo, si + i % mi))
                o += 1
            else:
                tris.append((si + i % mi, so + o % mo, si + (i + 1) % mi))
                i += 1
    return np.array(tris, dtype=np.int64)


def _orient_ccw(nodes, tris):
    v = nodes[tris]
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    sign = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flip = sign < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _edge_table(tris, n_nodes):
    """The edges of vertex triangles (ne, 3) by one np.unique: the directed
    edges (3 ne, 2) in (element, local edge) order, the sorted edge keys
    lo * n_nodes + hi, each edge's first slot, each slot's edge, and each
    edge's count (1 on the boundary, 2 inside)."""
    directed = tris[:, TRI_EDGES].reshape(-1, 2)
    keys = directed.min(axis=1) * n_nodes + directed.max(axis=1)
    return (directed,) + np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )


# Chord parameter of the boundary midside node before radial projection:
# 1/2 + min(BIAS_CAP, BIAS * chord length). Exactly 1/2 would make every
# curved edge a symmetric arc section, whose quadratic fit of the circle
# superconverges (O(h^4)) and hides the generic O(h^{k+1}) boundary-fit
# rate the geometric estimates are written for. The radial fit error grows
# linearly in the offset fraction (at fixed h, like offset * h^2), so an
# offset proportional to h pins the fit at its generic O(h^3) scale.
BOUNDARY_MIDNODE_BIAS = 0.3
BOUNDARY_MIDNODE_BIAS_CAP = 0.08


def _add_midside_nodes(nodes, tris, table, project_to_circle):
    """Upgrade a vertex mesh to order 2. Returns nodes, elements and each
    directed edge slot's midside node; midside nodes are numbered in order
    of first appearance, boundary ones projected onto the circle if asked."""
    _, keys, first, inv, count = table
    n = len(nodes)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    pa, pb = nodes[keys[order] // n], nodes[keys[order] % n]
    mids = 0.5 * (pa + pb)
    if project_to_circle:
        # row norms by vecdot: the dot kernel of np.linalg.norm on one vector
        bd = count[order] == 1
        chord = np.sqrt(np.vecdot(pb[bd] - pa[bd], pb[bd] - pa[bd]))
        t = (0.5 + np.minimum(BOUNDARY_MIDNODE_BIAS_CAP, BOUNDARY_MIDNODE_BIAS * chord))[:, None]
        p = (1.0 - t) * pa[bd] + t * pb[bd]
        mids[bd] = p / np.sqrt(np.vecdot(p, p))[:, None]
    mid_of_slot = n + rank[inv]
    return np.vstack([nodes, mids]), np.hstack([tris, mid_of_slot.reshape(-1, 3)]), mid_of_slot


def _finish_mesh(nodes, tris, order, domain_kind, project_to_circle):
    if order not in (1, 2):
        raise ValueError(f"unsupported order {order}")
    tris = _orient_ccw(nodes, tris.copy())
    table = _edge_table(tris, len(nodes))
    directed, _, _, inv, count = table
    bslots = np.nonzero(count[inv] == 1)[0]
    faces = directed[bslots]
    if order == 2:
        nodes, tris, mid_of_slot = _add_midside_nodes(nodes, tris, table, project_to_circle)
        faces = np.column_stack([faces, mid_of_slot[bslots]])
    mesh = Mesh(nodes, tris, faces, order, domain_kind)
    _check_not_inverted(mesh)
    return mesh


def disk_mesh(n_rings, order=1):
    """Ring-layout disk mesh with 6*n_rings^2 elements."""
    if n_rings < 2:
        raise ValueError("need at least 2 rings")
    nodes = _disk_vertices(n_rings)
    tris = _disk_triangles(n_rings)
    return _finish_mesh(nodes, tris, order, "disk", project_to_circle=True)


@functools.cache
def shared_mesh(kind, n, order):
    """The process-wide disk (n rings) or square (n per side) mesh, built once."""
    return disk_mesh(n, order) if kind == "disk" else build_square_mesh(n, order)


def build_disk_mesh(target_h, order=1):
    """Disk mesh whose h is within a factor 2 of target_h.

    target_h must lie in (0, 0.5] so the boundary layer is one element deep.
    """
    if not 0.0 < target_h <= 0.5:
        raise ValueError(f"target_h {target_h} out of range (0, 0.5]")
    if order not in (1, 2):
        raise ValueError(f"unsupported order {order}")
    n = max(3, int(np.ceil(1.1 / target_h)))
    mesh = disk_mesh(n, order)
    if not target_h / 2.0 <= mesh.h <= 2.0 * target_h:
        raise RuntimeError("disk mesher missed the target h by more than 2x")
    return mesh


# -- square mesh -----------------------------------------------------------


def build_square_mesh(n_per_side, order=1):
    """Structured triangulation of [0,1]^2 with 2*n^2 elements."""
    n = int(n_per_side)
    if n < 2:
        raise ValueError("n_per_side must be >= 2")
    if order not in (1, 2):
        raise ValueError(f"unsupported order {order}")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j) has lower-left vertex i (n + 1) + j and splits along v00-v11
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return _finish_mesh(nodes, tris, order, "square", project_to_circle=False)
