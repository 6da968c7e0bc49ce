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

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .basis import TRI_EDGES, tri_shape, tri_shape_grad


@dataclass
class Mesh:
    """Curved order-k triangulation with node/element/boundary tables.

    nodes: (N, 2) coordinates. elements: (nelem, 3 or 6) node ids, CCW,
    vertices first. The rest derives from them: boundary_faces (nbf, 2 or 3)
    are the element edges no other element shares, oriented CCW along the
    boundary (endpoint a, endpoint b, then the midside node for k=2). Surface
    DOFs are the boundary nodes in ascending order; surface_faces holds the
    boundary faces in those surface DOF ids.
    """

    nodes: np.ndarray
    elements: np.ndarray
    order: int
    domain_kind: str
    boundary_faces: np.ndarray = field(init=False)
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
        if self.domain_kind not in ("disk", "square"):
            raise ValueError(f"domain_kind {self.domain_kind!r} is neither 'disk' nor 'square'")
        if self.order not in (1, 2):
            raise ValueError(f"order {self.order!r} is neither 1 nor 2")
        if self.elements.shape[1:] != (3 * self.order,):
            raise ValueError(f"elements {self.elements.shape} are not {3 * self.order} nodes wide")
        # boundary faces: the edge slots (element, local edge) whose edge occurs
        # once, as the directed edge and (k=2) the slot's midside node. A k=2
        # slot's edge is its midside node, so only k=1 needs the edge table.
        directed = self.elements[:, TRI_EDGES].reshape(-1, 2)
        mids = self.elements[:, 3:].reshape(len(directed), self.order - 1)
        edge = mids[:, 0] if self.order == 2 else _edge_table(self.elements, self.n_nodes)[2]
        slots = np.nonzero(np.bincount(edge)[edge] == 1)[0]
        self.boundary_faces = np.hstack([directed, mids])[slots]
        self.face_elem, self.face_local_edge = np.divmod(slots, 3)
        bset = np.unique(self.boundary_faces.ravel())
        self.boundary_node_ids = bset
        self.surface_faces = np.searchsorted(bset, self.boundary_faces)
        mask = np.ones(len(self.nodes), dtype=bool)
        mask[bset] = False
        self.interior_node_ids = np.nonzero(mask)[0]
        self.h = self._max_diameter()

    # -- derived geometry ------------------------------------------------

    def _max_diameter(self):
        # one node pair at a time: an (ne,) array each, not all pairs at once
        c = self.nodes[self.elements]  # (nelem, nb, 2)
        nb = c.shape[1]
        return float(max(
            np.linalg.norm(c[:, i] - c[:, j], axis=-1).max()
            for i in range(nb) for j in range(i + 1, nb)
        ))

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_nodes(self):
        return len(self.nodes)

    def quasi_uniformity_ratio(self):
        """(max element diameter) / (min inscribed-circle diameter)."""
        v = self.nodes[self.elements[:, :3]]
        perimeter = sum(np.linalg.norm(v[:, j] - v[:, i], axis=1) for i, j in TRI_EDGES)
        area = 0.5 * np.abs(_det_2x2(_vertex_jacobians(v)))
        inscribed = 4.0 * area / perimeter
        return self.h / float(inscribed.min())

    # -- serialization ---------------------------------------------------

    def to_json(self):
        doc = {
            "nodes": self.nodes.tolist(),
            "elements": self.elements.tolist(),
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
            order=int(doc["order"]),
            domain_kind=doc["domain_kind"],
        )


# -- shared mechanisms ------------------------------------------------------
# Underscored so per-layer tracing charges their time to the calling layer.


def _cached(mesh, key, build):
    """build() once per (mesh, key); the result lives as long as the mesh,
    or until `release_meshes` drops the mesh's store.

    The store sits on the mesh, so what is built from a mesh (its Gram sets,
    operators, solvers, lift and locator, ...) is shared by everything that
    holds the same mesh, and nothing built from it owns a store of its own.
    """
    store = mesh.__dict__.setdefault("_cache", {})
    if key not in store:
        store[key] = build()
    return store[key]


def _det_2x2(a):
    """Determinants of a stack of 2x2 matrices (..., 2, 2)."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _inverse_2x2(jac):
    """Inverses and determinants of a stack of 2x2 matrices (..., 2, 2)."""
    det = _det_2x2(jac)
    adj = np.empty_like(jac)
    adj[..., 0, 0] = jac[..., 1, 1]
    adj[..., 1, 1] = jac[..., 0, 0]
    adj[..., 0, 1] = -jac[..., 0, 1]
    adj[..., 1, 0] = -jac[..., 1, 0]
    return adj / det[..., None, None], det


# SuperLU's supernode relaxation and panel size for every factor (`_spd_factor`)
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 1


def _spd_factor(A, permc_spec="MMD_AT_PLUS_A"):
    """SuperLU factor of a sparse SPD matrix with diagonal pivots. SPD needs
    no pivoting. The default symmetric minimum-degree ordering of A + A^T
    (George & Liu 1981) about halves the fill of COLAMD's; "NATURAL" keeps
    an order that A already has.

    Relaxed supernodes (Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999)
    merge elimination subtrees of up to `relax` columns into dense blocks,
    storing their zeros. On the registry's k=2 pencils that padding costs
    more than the dense blocks save. The 19 factors of the disk(16, 2) 'all'
    pencil hold 4.25 M nonzeros at SuperLU's defaults (relax 10, panel 20),
    3.62 M at relax 1, 3.63 M at 4, 3.73 M at 8, 6.04 M at 40 and 11.75 M
    at 80. The k=1 and 'interior' pencils keep their fill at every relax up
    to 40. Over the three largest k=2 pencils of --levels 4 (disk(16, 2)
    'all' and 'interior', disk(12, 2) 'all'; 56 factors, 3 solves each,
    medians of 12 interleaved rounds on one core), factoring took 300 ms at
    the defaults against 215 ms at relax 1 and panel 1, 220 ms at relax 2
    and 223 ms at relax 4, and 231 ms at panel 2; solves 77 ms against 72 ms."""
    return spla.splu(
        A.tocsc(), permc_spec=permc_spec, diag_pivot_thresh=0.0,
        relax=SUPERLU_RELAX, panel_size=SUPERLU_PANEL_SIZE,
        options={"SymmetricMode": True},
    )


def _spd_solver(A):
    """Solve function of the SPD factor of A (`_spd_factor`)."""
    return _spd_factor(A).solve


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


def geometry_map(mesh, elems, ref_pt):
    """Physical points and Jacobians of the order-k geometry map.

    ref_pt may be a single (2,) point or an (m, 2) batch, and elems one
    element id or one per point; returns arrays of matching shape: point(s)
    (.., 2) and Jacobian(s) (.., 2, 2), views on their component planes
    (pts[:, x] and jac[:, x, r] are contiguous (m,) arrays). Each plane is
    a few multiply-adds of the barycentric planes and the node coordinates'.
    """
    ref = np.atleast_2d(ref_pt)
    elems = np.broadcast_to(elems, len(ref))
    bad = (elems < 0) | (elems >= mesh.n_elements)
    if bad.any():
        raise IndexError(f"invalid element id {elems[bad][0]}")
    c = mesh.nodes.T.take(mesh.elements[elems].T, axis=1)   # c[x, b] the (m,) plane of node b
    # the barycentric planes; the terms are `basis.tri_shape` and
    # `tri_shape_grad` (xi = (l1, l2)), summed over the nodes in order
    l1, l2 = ref[:, 0], ref[:, 1]
    l0 = 1.0 - l1 - l2
    if mesh.order == 1:
        pts = l0 * c[:, 0] + l1 * c[:, 1] + l2 * c[:, 2]
        jac = np.stack([c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]], axis=1)
    else:
        pts = (l0 * (2.0 * l0 - 1.0) * c[:, 0] + l1 * (2.0 * l1 - 1.0) * c[:, 1]
               + l2 * (2.0 * l2 - 1.0) * c[:, 2] + 4.0 * l0 * l1 * c[:, 3]
               + 4.0 * l1 * l2 * c[:, 4] + 4.0 * l2 * l0 * c[:, 5])
        g0, l1_4, l2_4 = (4.0 * l0 - 1.0) * c[:, 0], 4.0 * l1, 4.0 * l2
        jac = np.stack([
            (l1_4 - 1.0) * c[:, 1] - g0 + 4.0 * (l0 - l1) * c[:, 3] + l2_4 * c[:, 4] - l2_4 * c[:, 5],
            (l2_4 - 1.0) * c[:, 2] - g0 - l1_4 * c[:, 3] + l1_4 * c[:, 4] + 4.0 * (l0 - l2) * c[:, 5],
        ], axis=1)
    pts, jac = pts.T, jac.transpose(2, 0, 1)        # jac (2, 2, m) was jac[x, r]
    if np.ndim(ref_pt) == 1:
        return pts[0], jac[0]
    return pts, jac


def batched_geometry(mesh, ref_pts, elems=None):
    """Points and Jacobians for all (or selected) elements at shared ref points.

    Returns pts (nelem, m, 2), jac (nelem, m, 2, 2), det (nelem, m).
    """
    conn = mesh.elements if elems is None else mesh.elements[elems]
    coords = mesh.nodes[conn]                 # (ne, nb, 2)
    phi = tri_shape(mesh.order, ref_pts)      # (m, nb)
    dphi = tri_shape_grad(mesh.order, ref_pts)
    m, nb, _ = dphi.shape
    pts = phi @ coords
    # rows (point, reference direction) of dphi times coords: jac[e, m, x, r]
    jac = (dphi.transpose(0, 2, 1).reshape(2 * m, nb) @ coords).reshape(-1, m, 2, 2)
    jac = jac.swapaxes(-1, -2)
    return pts, jac, _det_2x2(jac)


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


def _vertex_jacobians(v):
    """Jacobians (ne, 2, 2) of the affine maps onto vertex triangles v
    (ne, 3, 2): columns v1 - v0 and v2 - v0."""
    return np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)


def _orient_ccw(nodes, tris):
    flip = _det_2x2(_vertex_jacobians(nodes[tris])) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _edge_table(tris, n_nodes):
    """The edges of vertex triangles (ne, 3) by one np.unique over the slots
    (element, local edge): the sorted edge keys lo * n_nodes + hi, each
    edge's first slot, each slot's edge, and each edge's count (1 on the
    boundary, 2 inside)."""
    directed = tris[:, TRI_EDGES].reshape(-1, 2)
    keys = directed.min(axis=1) * n_nodes + directed.max(axis=1)
    return np.unique(keys, return_index=True, return_inverse=True, return_counts=True)


# Chord parameter of the boundary midside node before radial projection:
# 1/2 + min(BIAS_CAP, BIAS * chord length). Exactly 1/2 would make every
# curved edge a symmetric arc section, whose quadratic fit of the circle
# superconverges (O(h^4)) and hides the generic O(h^{k+1}) boundary-fit
# rate the geometric estimates are written for. The radial fit error grows
# linearly in the offset fraction (at fixed h, like offset * h^2), so an
# offset proportional to h pins the fit at its generic O(h^3) scale.
BOUNDARY_MIDNODE_BIAS = 0.3
BOUNDARY_MIDNODE_BIAS_CAP = 0.08


def _add_midside_nodes(nodes, tris, project_to_circle):
    """Upgrade a vertex mesh to order 2. Returns nodes and elements; midside
    nodes are numbered in order of first appearance, boundary ones
    projected onto the circle if asked."""
    keys, first, inv, count = _edge_table(tris, len(nodes))
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
    return np.vstack([nodes, mids]), np.hstack([tris, (n + rank[inv]).reshape(-1, 3)])


def dof_map(mesh, order):
    """Element-to-DOF table of the order-`order` Lagrange space on the mesh's
    triangulation: its elements at its own order, for P2 over P1 the numbering
    an order-2 mesh of that triangulation gets, for P3 over P1 the vertices,
    two DOFs per edge (the one nearer its lower vertex id first) and one per
    element; other pairs are refused."""
    if order == mesh.order:
        return mesh.elements
    if mesh.order != 1 or order not in (2, 3):
        raise ValueError(f"no order-{order} DOF map over an order-{mesh.order} mesh")
    if order == 2:
        return _add_midside_nodes(mesh.nodes, mesh.elements, False)[1]
    tris, n = mesh.elements, mesh.n_nodes
    edge = _edge_table(tris, n)[2].reshape(-1, 3)
    # an element's node at t = 1/3 of edge (a, b) is the edge's first DOF if a < b
    directed = tris[:, TRI_EDGES]
    flip = directed[..., 0] > directed[..., 1]
    near = n + 2 * edge[:, :, None] + np.stack([flip, ~flip], axis=2)
    bubble = n + 2 * (edge.max() + 1) + np.arange(len(tris))
    return np.hstack([tris, near.reshape(-1, 6), bubble[:, None]])


def _finish_mesh(nodes, tris, order, domain_kind, project_to_circle):
    tris = _orient_ccw(nodes, tris.copy())
    if order == 2:
        nodes, tris = _add_midside_nodes(nodes, tris, project_to_circle)
    return Mesh(nodes, tris, order, domain_kind)


def disk_mesh(n_rings, order=1):
    """Ring-layout disk mesh with 6*n_rings^2 elements."""
    if n_rings < 2:
        raise ValueError("need at least 2 rings")
    nodes = _disk_vertices(n_rings)
    tris = _disk_triangles(n_rings)
    return _finish_mesh(nodes, tris, order, "disk", project_to_circle=True)


_MESHES = {}    # the shared meshes by key (kind, n, order)


def shared_mesh(kind, n, order):
    """The stored disk (n rings) or square (n per side) mesh, built when absent."""
    key = (kind, n, order)
    if key not in _MESHES:
        _MESHES[key] = disk_mesh(n, order) if kind == "disk" else build_square_mesh(n, order)
    return _MESHES[key]


def release_meshes(keep):
    """Drop every stored mesh whose key is not in `keep`, with its cache, which
    closes the only cycles through it (`GramSet.mesh`, `LiftMap.mesh`, ...;
    every cache is the mesh's own); reference counting then frees the mesh
    and all built from it once no caller holds it."""
    for key in set(_MESHES) - set(keep):
        _MESHES.pop(key).__dict__.pop("_cache", None)


def build_disk_mesh(target_h, order=1):
    """Disk mesh whose h is within a factor 2 of target_h.

    target_h must lie in (0, 0.5] so the boundary layer is one element deep.
    """
    if not 0.0 < target_h <= 0.5:
        raise ValueError(f"target_h {target_h} out of range (0, 0.5]")
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
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j) has lower-left vertex i (n + 1) + j and splits along v00-v11
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return _finish_mesh(nodes, tris, order, "square", project_to_circle=False)
