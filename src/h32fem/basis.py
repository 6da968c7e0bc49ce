"""Lagrange shape functions on the reference triangle and reference edge.

Node ordering on the triangle, order k=1: the three vertices
(0,0), (1,0), (0,1). Order k=2 appends the edge midpoints (1/2,0),
(1/2,1/2), (0,1/2), i.e. midpoints of edges (0,1), (1,2), (2,0).
Order k=3 (values only, for the Gagliardo oracle's cubic products) appends
per edge (a, b) the points at t = 1/3 and 2/3 from a to b, then the centroid.
On the edge [0,1]: endpoints 0, 1, then (k=2) the midpoint 1/2.
"""

import numpy as np

# local vertex pairs of the three triangle edges, in midpoint order
TRI_EDGES = ((0, 1), (1, 2), (2, 0))
# vertices of the reference triangle
TRI_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# reference gradients of the barycentric coordinates tri_shape(1, .), constant
TRI_DLAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
# reference tangents of the three edges, vertex a to vertex b
TRI_TANGENTS = np.array([TRI_VERTS[b] - TRI_VERTS[a] for a, b in TRI_EDGES])


def tri_ref_nodes(order):
    """Reference coordinates of the local nodes."""
    if order not in (1, 2, 3):
        raise ValueError(f"unsupported order {order}")
    t = np.tile(np.arange(1, order) / order, 3)
    nodes = [TRI_VERTS, tri_edge_ref_points(np.repeat(np.arange(3), order - 1), t)]
    if order == 3:
        nodes.append(np.full((1, 2), 1.0 / 3.0))
    return np.vstack(nodes)


def tri_shape(order, pts):
    """Values of the triangle shape functions.

    pts: (m, 2) reference points. Returns (m, nbasis).
    """
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - x - y, x, y], axis=1)  # barycentric (m, 3)
    if order == 1:
        return lam
    if order == 2:
        l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
        return np.stack(
            [
                l0 * (2.0 * l0 - 1.0),
                l1 * (2.0 * l1 - 1.0),
                l2 * (2.0 * l2 - 1.0),
                4.0 * l0 * l1,
                4.0 * l1 * l2,
                4.0 * l2 * l0,
            ],
            axis=1,
        )
    if order == 3:
        verts = [0.5 * l * (3.0 * l - 1.0) * (3.0 * l - 2.0) for l in lam.T]
        edges = [4.5 * lam[:, i] * lam[:, j] * (3.0 * lam[:, n] - 1.0) for i, j in TRI_EDGES for n in (i, j)]
        return np.stack(verts + edges + [27.0 * lam.prod(axis=1)], axis=1)
    raise ValueError(f"unsupported order {order}")


def tri_shape_grad(order, pts):
    """Reference gradients of the triangle shape functions: (m, nbasis, 2)."""
    pts = np.atleast_2d(pts)
    m = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    if order == 1:
        return np.broadcast_to(TRI_DLAM, (m, 3, 2)).copy()
    if order == 2:
        lam = np.stack([1.0 - x - y, x, y], axis=1)
        g = np.empty((m, 6, 2))
        for i in range(3):
            g[:, i, :] = (4.0 * lam[:, i, None] - 1.0) * TRI_DLAM[i]
        for e, (a, b) in enumerate(TRI_EDGES):
            g[:, 3 + e, :] = 4.0 * (lam[:, a, None] * TRI_DLAM[b] + lam[:, b, None] * TRI_DLAM[a])
        return g
    raise ValueError(f"unsupported order {order}")


def edge_shape(order, t):
    """Values of the edge shape functions: (m, nbasis)."""
    t = np.atleast_1d(t)
    if order == 1:
        return np.stack([1.0 - t, t], axis=1)
    if order == 2:
        return np.stack(
            [2.0 * (t - 0.5) * (t - 1.0), 2.0 * t * (t - 0.5), 4.0 * t * (1.0 - t)],
            axis=1,
        )
    raise ValueError(f"unsupported order {order}")


def edge_shape_deriv(order, t):
    """t-derivatives of the edge shape functions: (m, nbasis)."""
    t = np.atleast_1d(t)
    if order == 1:
        one = np.ones_like(t)
        return np.stack([-one, one], axis=1)
    if order == 2:
        return np.stack([4.0 * t - 3.0, 4.0 * t - 1.0, 4.0 - 8.0 * t], axis=1)
    raise ValueError(f"unsupported order {order}")


def tri_edge_ref_points(local_edge, t):
    """Map edge parameters t in [0,1] to reference coordinates on a local edge:
    (m, 2) points for m parameters, local_edge one edge index or one per point."""
    t = np.atleast_1d(t)[:, None]
    ends = TRI_VERTS[np.array(TRI_EDGES)[local_edge]]  # (2, 2) or (m, 2, 2)
    return ends[..., 0, :] * (1.0 - t) + ends[..., 1, :] * t
