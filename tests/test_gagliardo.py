import functools
import tracemalloc

import numpy as np
import pytest

from h32fem import assembly, experiments, gagliardo
from h32fem.assembly import FeFunction, nodal_interp_bulk
from h32fem.basis import TRI_EDGES, TRI_VERTS, tri_shape, tri_shape_grad
from h32fem.experiments import ExperimentConfig, get_mesh, run_experiment
from h32fem.gagliardo import (
    FeExpression,
    gagliardo_gram,
    gagliardo_seminorms,
)
from h32fem.meshing import Mesh, build_square_mesh, dof_map, shared_mesh
from h32fem.quadrature import default_degree, edge_rule, triangle_rule


@pytest.fixture(scope="module")
def sq3():
    return build_square_mesh(3, 1)


def test_constant_vanishes(sq3):
    u = nodal_interp_bulk(sq3, lambda p: 5.0 * np.ones(len(p)))
    assert gagliardo_seminorms([u], sq3)[0] < 1e-10


def test_homogeneity(sq3):
    u = nodal_interp_bulk(sq3, lambda p: p[:, 0] - 0.3 * p[:, 1] ** 2)
    base, scaled = gagliardo_seminorms([u, u.scaled(2.5)], sq3)
    assert abs(scaled - 2.5 * base) < 1e-12 * base


def test_linear_function_reference_value(sq3):
    # |x|_{H^{1/2}} on the unit square; frozen from a degree-12 run of this
    # oracle (1.21889...), mesh-independent since the function is smooth
    u = nodal_interp_bulk(sq3, lambda p: p[:, 0])
    val = gagliardo_seminorms([u], sq3)[0]
    assert abs(val - 1.2189) < 0.01


def test_mesh_invariance_for_smooth_input():
    vals = []
    for n in (2, 4):
        m = build_square_mesh(n, 1)
        vals.append(gagliardo_seminorms([lambda p: np.sin(p[:, 0])], m)[0])
    assert abs(vals[0] - vals[1]) < 0.02 * vals[0]


def test_batch_matches_single(sq3):
    u = nodal_interp_bulk(sq3, lambda p: p[:, 0] * p[:, 1])
    v = nodal_interp_bulk(sq3, lambda p: np.cos(p[:, 1]))
    batch = gagliardo_seminorms([u, v], sq3)
    assert abs(batch[0] - gagliardo_seminorms([u], sq3)[0]) < 1e-13
    assert abs(batch[1] - gagliardo_seminorms([v], sq3)[0]) < 1e-13


def test_fe_expression_product(sq3):
    # interp(x) reproduces x exactly on a k=1 mesh, so the FE product
    # expression u*u must match the callable x -> x^2 to rounding
    u = nodal_interp_bulk(sq3, lambda p: p[:, 0])
    prod = FeExpression(lambda a, b: a * b, [u, u])
    got = gagliardo_seminorms([prod], sq3)[0]
    direct = gagliardo_seminorms([lambda p: p[:, 0] ** 2], sq3)[0]
    assert abs(got - direct) < 1e-12 * direct


def test_element_cap():
    m = build_square_mesh(18, 1)  # 648 elements > cap
    with pytest.raises(ValueError):
        gagliardo_seminorms([lambda p: p[:, 0]], m)


def test_fe_inputs_of_another_mesh_are_refused():
    # a copy of the mesh scaled by 1/2 has the same tables but other geometry;
    # the seminorm there would be computed silently on the wrong elements
    sq = build_square_mesh(2, 1)
    half = Mesh(0.5 * sq.nodes, sq.elements, 1, "square")
    v = nodal_interp_bulk(sq, lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1])
    with pytest.raises(ValueError, match="another mesh"):
        gagliardo_seminorms([v], half)
    with pytest.raises(ValueError, match="another mesh"):
        gagliardo_seminorms([lambda p: p[:, 0], FeExpression(lambda a: a * a, [v])], half)


# -- reference: the per-element oracle the blocked one replaced, verbatim ------


@functools.cache
def _duffy_layout(deg):
    """Outer rule plus apex-Duffy inner layout, cached by degree."""
    outer = triangle_rule(deg)
    g = edge_rule(deg)
    s, t = np.meshgrid(g.points, g.points, indexing="ij")
    wst = np.outer(g.weights, g.weights).ravel()
    s, t = s.ravel(), t.ravel()
    xo = outer.points
    refs, jacs = [], []
    for a, b in TRI_EDGES:
        A = TRI_VERTS[a][None, :] - xo
        B = TRI_VERTS[b][None, :] - xo
        e_t = A[:, None, :] * (1.0 - t)[None, :, None] + B[:, None, :] * t[None, :, None]
        refs.append(xo[:, None, :] + s[None, :, None] * e_t)
        cross = A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]
        jacs.append(np.abs(cross)[:, None] * s[None, :] * wst[None, :])
    inner_ref = np.concatenate(refs, axis=1)           # (mo, 3*mst, 2)
    inner_jw = np.concatenate(jacs, axis=1)            # Duffy jacobian * weights
    return xo, outer.weights, inner_ref, inner_jw


def _shape_tables(order, ref_pts):
    return tri_shape(order, ref_pts), tri_shape_grad(order, ref_pts)


def _elem_pts_det(coords, phi, dphi):
    pts = phi @ coords
    jac = np.einsum("qbr,bx->qxr", dphi, coords)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    return pts, np.abs(det)


class _Evaluator:
    """Values of a function batch at per-element points."""

    def __init__(self, funcs, mesh):
        self.mesh = mesh
        self.entries = []
        for f in funcs:
            if hasattr(f, "coeffs"):
                self.entries.append(("fe", f.coeffs[mesh.elements]))
            elif isinstance(f, FeExpression):
                self.entries.append(
                    ("expr", f.combine, [g.coeffs[mesh.elements] for g in f.funcs])
                )
            else:
                self.entries.append(("fn", f))
        self.n = len(funcs)

    def at(self, phi, elem, pts):
        out = np.empty((self.n, len(pts)))
        for j, ent in enumerate(self.entries):
            if ent[0] == "fe":
                out[j] = phi @ ent[1][elem]
            elif ent[0] == "expr":
                vals = [
                    np.einsum("qb,b...->q...", phi, loc[elem]) for loc in ent[2]
                ]
                out[j] = ent[1](*vals)
            else:
                out[j] = np.asarray(ent[1](pts), dtype=float)
        return out


_CHUNK = 64


def _pair_sum(ve, vf, K):
    """sum_{q,r} (ve[:,q] - vf[:,r])^2 K[q,r], batched over the first axis."""
    out = np.empty(len(ve))
    for lo in range(0, len(ve), _CHUNK):
        hi = lo + _CHUNK
        dv = ve[lo:hi, :, None] - vf[lo:hi, None, :]
        out[lo:hi] = np.einsum("nqr,nqr,qr->n", dv, dv, K, optimize=True)
    return out


def _adjacency(mesh):
    by_node = {}
    for e, conn in enumerate(mesh.elements[:, :3]):
        for v in conn:
            by_node.setdefault(int(v), []).append(e)
    adj = [set() for _ in range(mesh.n_elements)]
    for elems in by_node.values():
        for e in elems:
            adj[e].update(elems)
    for e in range(mesh.n_elements):
        adj[e].discard(e)
    return adj


def _reference_seminorms(funcs, mesh, degree=None):
    """Gagliardo H^{1/2} seminorms of several functions in one sweep.

    funcs: FeFunction instances or callables pts -> values. Returns an
    array of seminorms (not squared).
    """
    if degree is None:
        degree = default_degree(mesh.order)
    ev = _Evaluator(funcs, mesh)
    adj = _adjacency(mesh)
    ne = mesh.n_elements
    coords = mesh.nodes[mesh.elements]
    total = np.zeros(ev.n)

    # separated pairs: base rule for disjoint, doubled for adjacent
    tabs = {}
    for tag, deg in (("d", degree), ("a", 2 * degree)):
        rule = triangle_rule(deg)
        phi, dphi = _shape_tables(mesh.order, rule.points)
        pts = np.empty((ne, len(rule), 2))
        w = np.empty((ne, len(rule)))
        for e in range(ne):
            pts[e], det = _elem_pts_det(coords[e], phi, dphi)
            w[e] = rule.weights * det
        vals = np.stack([ev.at(phi, e, pts[e]) for e in range(ne)], axis=1)
        tabs[tag] = (pts, w, vals)
    for e in range(ne):
        for f in range(e + 1, ne):
            tag = "a" if f in adj[e] else "d"
            pts, w, vals = tabs[tag]
            diff = pts[e][:, None, :] - pts[f][None, :, :]
            K = (w[e][:, None] * w[f][None, :]) / np.sum(diff**2, axis=-1) ** 1.5
            total += 2.0 * _pair_sum(vals[:, e], vals[:, f], K)

    # identical pairs: apex-Duffy split around each outer point
    xo, wo, inner_ref, inner_jw = _duffy_layout(4 * degree)
    phi_o, dphi_o = _shape_tables(mesh.order, xo)
    flat = inner_ref.reshape(-1, 2)
    phi_i, dphi_i = _shape_tables(mesh.order, flat)
    mo = len(xo)
    for e in range(ne):
        pts_o, det_o = _elem_pts_det(coords[e], phi_o, dphi_o)
        pts_i, det_i = _elem_pts_det(coords[e], phi_i, dphi_i)
        vo = ev.at(phi_o, e, pts_o)                     # (nfun, mo)
        vi = ev.at(phi_i, e, pts_i)                     # (nfun, mo*3mst)
        pi = pts_i.reshape(mo, -1, 2)
        di = det_i.reshape(mo, -1)
        diff = pts_o[:, None, :] - pi
        r3 = np.sum(diff**2, axis=-1) ** 1.5
        K = (wo * det_o)[:, None] * inner_jw * di / r3   # (mo, 3mst)
        vi = vi.reshape(ev.n, mo, -1)
        for q in range(mo):
            dv = vo[:, q, None] - vi[:, q, :]
            total += (dv * dv) @ K[q]
    return np.sqrt(total)


def _mixed_panel(mesh):
    """FE functions, FE expressions (one sharing its inputs with the panel) and callables."""
    u = nodal_interp_bulk(mesh, lambda p: np.sin(2.0 * p[:, 0]) + p[:, 1] ** 2)
    v = nodal_interp_bulk(mesh, lambda p: np.cos(p[:, 1]) * p[:, 0] - 0.5)
    w = nodal_interp_bulk(mesh, lambda p: np.exp(0.5 * p[:, 0] * p[:, 1]))
    return [
        u,
        v,
        FeExpression(lambda a, b: a * b, [u, v]),
        FeExpression(lambda a, b, c: (a + b) * c - a * a, [u, w, v]),
        lambda p: np.exp(p[:, 0]) * p[:, 1],
        lambda p: np.hypot(p[:, 0] - 0.2, p[:, 1]),
    ]


@pytest.mark.parametrize("kind,n,order", [("square", 3, 1), ("disk", 2, 2)])
def test_blocked_oracle_matches_per_element_reference(kind, n, order):
    mesh = get_mesh(kind, n, order)
    funcs = _mixed_panel(mesh)
    got = gagliardo_seminorms(funcs, mesh)
    ref = _reference_seminorms(funcs, mesh)
    assert np.all(ref > 0.0)
    assert np.abs(got / ref - 1.0).max() <= 1e-12


def _traced_peak(funcs, mesh):
    """tracemalloc's peak over one direct pass of funcs."""
    tracemalloc.start()
    try:
        gagliardo_seminorms(funcs, mesh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_bounded_by_block_budget():
    # the per-element oracle held every function's values at all of an
    # element's Duffy points at once (64 x 85,683 doubles here, ~44 MB);
    # the pass takes one input at a time, so 64 inputs peak like one
    mesh = build_square_mesh(2, 1)
    us = [nodal_interp_bulk(mesh, lambda p, a=a: np.sin(a * p[:, 0]) + p[:, 1]) for a in range(40)]
    funcs = us + [FeExpression(lambda a, b: a * b, us[i : i + 2]) for i in range(20)]
    funcs += [lambda p, a=a: p[:, 0] ** a for a in range(4)]
    gagliardo_seminorms(us[:1], mesh)    # fills the per-degree Duffy layout cache
    one, panel = _traced_peak(us[:1], mesh), _traced_peak(funcs, mesh)
    assert panel < 16 * assembly._BLOCK_BYTES
    assert panel < 1.05 * one


def test_peak_memory_does_not_grow_with_the_leaves_of_expressions():
    # an expression's values are formed from its FE leaves' values at a
    # block's points only, one input at a time: 12 products of 5 leaves each
    # peak within 1.5x of 12 plain FE functions (function blocks sized by
    # the function count alone made it 1.9x)
    mesh = build_square_mesh(3, 1)
    us = [nodal_interp_bulk(mesh, lambda p, a=a: np.sin(a * p[:, 0]) + p[:, 1]) for a in range(60)]
    prods = [FeExpression(lambda a, b, c, d, e: (a * b + c * d) * e, us[i : i + 5]) for i in range(0, 60, 5)]
    gagliardo_seminorms(us[:1], mesh)    # fills the per-degree Duffy layout cache
    peaks = [_traced_peak(funcs, mesh) for funcs in (us[:12], prods)]
    assert peaks[1] < 1.5 * peaks[0]


def test_vector_fe_input_is_refused(sq3):
    # the seminorm is of scalar functions: a 2-vector field's values do not
    # make one value per point, and are not broadcast into one
    field = nodal_interp_bulk(sq3, lambda p: np.column_stack([p[:, 0], p[:, 1] ** 2]))
    assert field.arity == 2
    with pytest.raises(ValueError):
        gagliardo_seminorms([field], sq3)


# -- the Gram matrix against the direct pass ------------------------------------


def _p1_to_p2(c1, m1):
    """P2 coefficients of P1 functions (columns of c1): edge midpoints average."""
    dofs = dof_map(m1, 2)
    c2 = np.empty((dofs.max() + 1,) + c1.shape[1:])
    c2[dofs[:, :3]] = c1[m1.elements]
    for i, (a, b) in enumerate(TRI_EDGES):
        c2[dofs[:, 3 + i]] = 0.5 * (c1[m1.elements[:, a]] + c1[m1.elements[:, b]])
    return c2


def _quadratic_form_seminorms(G, C):
    return np.sqrt(np.maximum(0.0, np.sum(C * (G @ C), axis=0)))


@pytest.mark.parametrize("kind,n,order", [("disk", 2, 2), ("disk", 3, 1), ("square", 3, 2)])
def test_gram_matches_direct_pass(kind, n, order):
    # FE inputs in the mesh's own space, some offset by a constant: the
    # offset grows the cancelling near-singular terms, and a G built without
    # merging the DOFs adjacent elements share misses by over 1e-12 here
    mesh = get_mesh(kind, n, order)
    rng = np.random.default_rng(3)
    C = rng.normal(size=(mesh.n_nodes, 6))
    C[:, 3:] += 20.0
    got = _quadratic_form_seminorms(gagliardo_gram(mesh, order), C)
    ref = gagliardo_seminorms([FeFunction(mesh, c) for c in C.T], mesh)
    assert np.abs(got / ref - 1.0).max() <= 1e-12


def test_gram_of_p2_space_matches_products_on_p1_mesh():
    # on the affine square, products of P1 functions are P2 on the same
    # triangulation: the P2 Gram matrix over the P1 mesh's rules reproduces
    # the direct pass over the FeExpression products
    m1 = get_mesh("square", 3, 1)
    rng = np.random.default_rng(4)
    c1 = rng.normal(size=(m1.n_nodes, 8))
    c1[:, 4:] += 20.0
    us = [FeFunction(m1, c) for c in c1.T]
    funcs = us[:3] + [
        FeExpression(lambda a, b: a * b, [us[0], us[1]]),
        FeExpression(lambda a, b: a * b, [us[4], us[5]]),
        FeExpression(lambda a, b, c: a * b + c, [us[6], us[7], us[2]]),
    ]
    c2 = _p1_to_p2(c1, m1)
    C = np.column_stack(
        [c2[:, 0], c2[:, 1], c2[:, 2], c2[:, 0] * c2[:, 1], c2[:, 4] * c2[:, 5],
         c2[:, 6] * c2[:, 7] + c2[:, 2]]
    )
    got = _quadratic_form_seminorms(gagliardo_gram(m1, 2), C)
    ref = gagliardo_seminorms(funcs, m1)
    assert np.abs(got / ref - 1.0).max() <= 1e-12


def test_gram_is_cached_per_mesh_and_order_and_read_only(gram_builds):
    m1 = build_square_mesh(3, 1)
    G = gagliardo_gram(m1, 2)
    assert gagliardo_gram(m1, 2) is G
    assert not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 1.0
    # the mesh's own order is another entry; an equal mesh that is another
    # object gets its own build
    assert gagliardo_gram(m1, 1).shape == (m1.n_nodes, m1.n_nodes)
    twin = build_square_mesh(3, 1)
    G_twin = gagliardo_gram(twin, 2)
    assert G_twin is not G and np.array_equal(G_twin, G)
    assert [(mesh, order) for mesh, order in gram_builds] == [(m1, 2), (m1, 1), (twin, 2)]


@pytest.mark.parametrize("space", [("square", 3, 2), ("disk", 2, 2)])
def test_gram_is_symmetric_psd_with_constants_in_kernel(space):
    kind, n, order = space
    mesh = get_mesh(kind, n, 1 if kind == "square" else order)
    G = gagliardo_gram(mesh, order)
    norm = np.linalg.norm(G, 2)
    assert np.array_equal(G, G.T)
    assert np.linalg.eigvalsh(G).min() >= -1e-13 * norm
    assert np.abs(G.sum(axis=1)).max() <= 1e-13 * norm


@pytest.fixture()
def gram_builds(monkeypatch):
    """The (mesh, order) of every uncached Gram build while the test runs."""
    builds, build = [], gagliardo._assemble_gram

    def counted(mesh, order):
        builds.append((mesh, order))
        return build(mesh, order)

    monkeypatch.setattr(gagliardo, "_assemble_gram", counted)
    return builds


def test_gram_peak_memory_is_bounded_by_block_budget(gram_builds):
    m1 = build_square_mesh(3, 1)
    sq2 = build_square_mesh(2, 1)
    gagliardo_gram(sq2, 1)    # fills the per-degree Duffy layout cache
    tracemalloc.start()
    try:
        gagliardo_gram(m1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a fresh mesh: a real build was measured, not a cache hit
    assert len(gram_builds) == 2 and gram_builds[1][0] is m1 and gram_builds[1][1] == 2
    assert peak < 16 * assembly._BLOCK_BYTES


def test_gram_refuses_unsupported_orders_and_large_meshes(gram_builds):
    sq1, sq2 = build_square_mesh(3, 1), build_square_mesh(3, 2)
    # the mesh's own order, or P2 and P3 over a P1 mesh
    assert gagliardo_gram(sq1, 3).shape == (100, 100)
    for mesh, order in ((sq2, 1), (sq2, 3), (sq1, 4)):
        with pytest.raises(ValueError, match="DOF map"):
            gagliardo_gram(mesh, order)
    big = build_square_mesh(40, 1)      # 3,200 elements > MAX_ELEMENTS, 1,681 nodes
    # refused before G (22 MB at order 1) or any other mesh-sized array,
    # the P2 and P3 DOF maps included, is made
    tracemalloc.start()
    try:
        for order in (1, 2, 3):
            with pytest.raises(ValueError, match="too large"):
                gagliardo_gram(big, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every call reached the builder: fresh meshes, no cache hit
    assert len(gram_builds) == 7
    assert peak < assembly._BLOCK_BYTES


# -- the experiments' route: every seminorm a quadratic form in the P3 Gram matrix


def _product_panel():
    """12 samples of 5 smooth P1 inputs on the square, drawn like those of
    product_sampled (a), their nodal values as columns, and the 12 cubic
    products (a1 b1 + a2 b2) c formed from the nodal P3 coefficients."""
    m = get_mesh("square", 3, 1)
    rng = np.random.default_rng(5)
    us = [experiments._smooth_rand_interp(m, rng) for _ in range(60)]

    def cubic(c3):
        c = c3.reshape(len(c3), 12, 5)
        return (c[..., 0] * c[..., 2] + c[..., 1] * c[..., 3]) * c[..., 4]

    products = [
        FeExpression(lambda a1, a2, b1, b2, c: (a1 * b1 + a2 * b2) * c, us[i:i + 5])
        for i in range(0, 60, 5)
    ]
    return m, us, np.column_stack([u.coeffs for u in us]), cubic, products


def test_gram_route_matches_direct_pass_on_the_product_panel():
    m, us, c1, cubic, products = _product_panel()
    got = experiments._square_half_seminorms(3, c1)
    ref = gagliardo_seminorms(us, m)
    assert np.all(ref > 0.0)
    assert np.abs(got / ref - 1.0).max() <= 1e-12
    # leibniz_half's route: products u v of P1 pairs, formed from the nodal
    # P3 coefficients by `combine`, against the direct pass over the products
    got = experiments._square_half_seminorms(3, c1, lambda c3: c3[:, 0::2] * c3[:, 1::2])
    pairs = [FeExpression(lambda a, b: a * b, us[i:i + 2]) for i in range(0, 60, 2)]
    ref = gagliardo_seminorms(pairs, m)
    assert np.all(ref > 0.0)
    assert np.abs(got / ref - 1.0).max() <= 1e-12
    # product_sampled (a)'s route: its 12 cubic products
    got = experiments._square_half_seminorms(3, c1, cubic)
    ref = gagliardo_seminorms(products, m)
    assert np.all(ref > 0.0)
    assert np.abs(got / ref - 1.0).max() <= 1e-12


def test_gram_route_rejects_a_p3_map_with_one_edge_reversed(monkeypatch):
    # swap the two DOFs of one interior edge in one element's row of the P3
    # map: that element's cubic no longer matches its neighbour's on the edge,
    # and the route leaves the direct pass far behind
    m, _, c1, cubic, products = _product_panel()
    fresh = build_square_mesh(3, 1)
    dofs = dof_map(fresh, 3).copy()
    slots = [7, 8]                        # element 0's nodes on its edge (2, 0), the cell diagonal
    assert np.count_nonzero(np.isin(dofs, dofs[0, slots]).any(axis=1)) == 2
    dofs[0, slots] = dofs[0, slots[::-1]]
    mutated = lambda mesh, order: dofs if mesh is fresh and order == 3 else dof_map(mesh, order)
    monkeypatch.setattr(experiments, "get_mesh", lambda kind, n, order: fresh)
    monkeypatch.setattr(experiments, "dof_map", mutated)
    monkeypatch.setattr(gagliardo, "dof_map", mutated)
    got = experiments._square_half_seminorms(3, c1, cubic)
    ref = gagliardo_seminorms(products, m)
    assert np.abs(got / ref - 1.0).max() > 1e-3     # 3.3e-2; the route matches to 1e-12


def test_product_sampled_then_leibniz_half_build_one_gram(monkeypatch, gram_builds):
    # fresh square meshes, so the count starts from an empty cache
    fresh = functools.cache(build_square_mesh)
    monkeypatch.setattr(
        experiments, "get_mesh",
        lambda kind, n, order: fresh(n, order) if kind == "square" else shared_mesh(kind, n, order),
    )
    direct, class_sum = [], gagliardo._class_sum

    def counted(*args):
        direct.append(args)
        return class_sum(*args)

    monkeypatch.setattr(gagliardo, "_class_sum", counted)
    for name in ("product_sampled", "leibniz_half"):
        assert run_experiment(name, ExperimentConfig(order=1)).passed
    # one P3 Gram serves every seminorm, and no experiment runs the direct pass
    assert gram_builds == [(fresh(3, 1), 3)]
    assert direct == []
    assert not hasattr(experiments, "gagliardo_seminorms")
    assert not hasattr(experiments, "FeExpression")
