import json

import numpy as np
import pytest

from h32fem.basis import edge_shape, tri_edge_ref_points, tri_shape, tri_shape_grad
from h32fem.meshing import (
    Mesh,
    _inverse_2x2,
    _norm_2x2,
    batched_geometry,
    build_disk_mesh,
    build_square_mesh,
    disk_mesh,
    dof_map,
    geometry_map,
)
from h32fem.quadrature import triangle_rule


def mesh_area(mesh):
    rule = triangle_rule(10)
    _, _, det = batched_geometry(mesh, rule.points)
    return float((det @ rule.weights).sum())


def inscribed_polygon_area(mesh):
    # exact area of the polygon spanned by the boundary nodes, from angles
    ids = mesh.boundary_node_ids
    ang = np.sort(np.arctan2(mesh.nodes[ids][:, 1], mesh.nodes[ids][:, 0]))
    gaps = np.diff(np.append(ang, ang[0] + 2 * np.pi))
    return 0.5 * float(np.sin(gaps).sum())


def test_boundary_nodes_on_circle():
    for k in (1, 2):
        m = disk_mesh(5, k)
        r = np.linalg.norm(m.nodes[m.boundary_node_ids], axis=1)
        assert np.abs(r - 1.0).max() < 1e-12


def test_disk_area_matches_polygon_oracle_k1():
    for n in (3, 6):
        m = disk_mesh(n, 1)
        assert abs(mesh_area(m) - inscribed_polygon_area(m)) < 1e-12


def test_disk_area_approaches_pi():
    for k in (1, 2):
        for n in (4, 8):
            m = disk_mesh(n, k)
            assert abs(mesh_area(m) - np.pi) < 4.0 * m.h ** (k + 1)


def test_element_count_grows_fourfold():
    counts = [disk_mesh(n, 1).n_elements for n in (3, 6, 12)]
    assert counts[1] == 4 * counts[0]
    assert counts[2] == 4 * counts[1]


def test_refinement_halves_h():
    hs = [disk_mesh(n, 1).h for n in (3, 6, 12)]
    for a, b in zip(hs, hs[1:]):
        assert a / 2 / 1.5 <= b <= a / 2 * 1.5


def test_quasi_uniformity_stable():
    ratios = [disk_mesh(n, 1).quasi_uniformity_ratio() for n in (3, 6, 12, 24)]
    assert max(ratios) < 8.0
    assert max(ratios) / min(ratios) < 1.2


def test_hausdorff_distance_decay_k2():
    hs, dists = [], []
    for n in (3, 6, 12, 24):
        m = disk_mesh(n, 2)
        ts = np.linspace(0.0, 1.0, 100)
        psi = edge_shape(2, ts)
        pts = np.einsum("qb,fbx->fqx", psi, m.nodes[m.boundary_faces])
        dists.append(np.abs(np.linalg.norm(pts, axis=-1) - 1.0).max())
        hs.append(m.h)
    slope = np.polyfit(np.log(hs), np.log(dists), 1)[0]
    assert slope >= 2.5


def test_build_disk_mesh_h_within_factor_two():
    for target in (0.5, 0.3, 0.12):
        m = build_disk_mesh(target, 1)
        assert target / 2 <= m.h <= 2 * target


def test_build_disk_mesh_rejects_bad_target():
    with pytest.raises(ValueError):
        build_disk_mesh(0.6)
    with pytest.raises(ValueError):
        build_disk_mesh(-0.1)


def test_square_counts_and_h():
    m = build_square_mesh(2, 1)
    assert m.n_elements == 8
    assert m.n_nodes == 9
    assert abs(mesh_area(m) - 1.0) < 1e-14
    assert abs(build_square_mesh(4, 1).h - np.sqrt(2) / 4) < 1e-14


def test_square_jacobians_constant_positive():
    m = build_square_mesh(3, 1)
    rule = triangle_rule(4)
    _, _, det = batched_geometry(m, rule.points)
    assert det.min() > 0
    assert np.abs(det - det[:, :1]).max() < 1e-14  # affine: constant per element
    assert np.abs(det - 1.0 / 9.0).max() < 1e-14


def test_square_rejects_small_n():
    with pytest.raises(ValueError):
        build_square_mesh(1, 1)


def test_geometry_map_nodal_and_affine():
    m = disk_mesh(3, 1)
    p, jac = geometry_map(m, 0, np.array([0.0, 0.0]))
    assert np.allclose(p, m.nodes[m.elements[0, 0]])
    # affine: same Jacobian anywhere in the element
    _, jac2 = geometry_map(m, 0, np.array([0.3, 0.4]))
    assert np.abs(jac - jac2).max() < 1e-14
    with pytest.raises(IndexError):
        geometry_map(m, m.n_elements + 3, np.array([0.1, 0.1]))
    # per-point ids: one bad id among good ones is refused
    for elems in ([0, m.n_elements], [-1, 0]):
        with pytest.raises(IndexError):
            geometry_map(m, np.array(elems), np.full((2, 2), 0.1))


def test_geometry_map_k2_edge_midpoint_on_circle(rng):
    m = disk_mesh(4, 2)
    le = m.face_local_edge
    # one local edge per point gives the per-edge call's points
    ts = rng.uniform(size=len(le))
    per_edge = np.array([tri_edge_ref_points(e, t)[0] for e, t in zip(le, ts)])
    assert np.array_equal(tri_edge_ref_points(le, ts), per_edge)
    p, _ = geometry_map(m, m.face_elem, tri_edge_ref_points(le, np.full(len(le), 0.5)))
    assert np.abs(np.linalg.norm(p, axis=1) - 1.0).max() < 1e-12


def test_json_roundtrip():
    m = disk_mesh(4, 2)
    # the JSON holds the elements and no boundary: the mesh derives it
    assert set(json.loads(m.to_json())) == {"nodes", "elements", "order", "domain_kind"}
    m2 = Mesh.from_json(m.to_json())
    assert np.array_equal(m2.nodes, m.nodes)
    assert np.array_equal(m2.elements, m.elements)
    assert np.array_equal(m2.boundary_faces, m.boundary_faces)
    assert m2.order == m.order and m2.domain_kind == m.domain_kind
    assert m2.h == m.h
    assert np.array_equal(m2.boundary_node_ids, m.boundary_node_ids)


@pytest.mark.parametrize("key, value, named", [
    ("domain_kind", "Disk", "domain_kind"),
    ("order", 3, "order"),
    # k=1 elements read as order 2 lack their midside nodes
    ("order", 2, "elements"),
])
def test_from_json_refuses_what_a_mesh_cannot_represent(key, value, named):
    doc = json.loads(disk_mesh(3, 1).to_json())
    doc[key] = value
    with pytest.raises(ValueError, match=named):
        Mesh.from_json(json.dumps(doc))


def test_inverse_2x2_matches_numpy(rng):
    jac = rng.normal(size=(5, 7, 2, 2)) + 2.0 * np.eye(2)
    inv, det = _inverse_2x2(jac)
    np.testing.assert_allclose(inv, np.linalg.inv(jac), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(det, np.linalg.det(jac), rtol=1e-12)


def test_norm_2x2_matches_numpy(rng):
    u, v = rng.normal(size=(2, 400, 2, 1))
    stacks = {
        "random": rng.normal(size=(20, 50, 2, 2)),
        "near conformal": np.eye(2) + 1e-4 * rng.normal(size=(1000, 2, 2)),
        "singular": np.stack([u, 3.0 * u], axis=-1)[..., 0, :],
        "rank 1": u * np.swapaxes(v, -1, -2),
        "zero": np.zeros((7, 2, 2)),
    }
    for name, a in stacks.items():
        ref = np.linalg.norm(a, ord=2, axis=(-2, -1))
        got = _norm_2x2(a)
        assert got.shape == ref.shape, name
        assert np.all(np.abs(got - ref) <= 1e-14 * ref), name


@pytest.mark.parametrize("kind, order", [("disk", 1), ("disk", 2), ("square", 2)])
def test_surface_faces_index_boundary_nodes(kind, order):
    mesh = disk_mesh(4, order) if kind == "disk" else build_square_mesh(3, order)
    bids = mesh.boundary_node_ids
    lookup = np.full(mesh.n_nodes, -1, dtype=np.int64)
    lookup[bids] = np.arange(len(bids))
    np.testing.assert_array_equal(mesh.surface_faces, lookup[mesh.boundary_faces])
    np.testing.assert_array_equal(bids[mesh.surface_faces], mesh.boundary_faces)


@pytest.mark.parametrize("kind, order", [("disk", 1), ("disk", 2), ("square", 2)])
def test_batched_geometry_matches_einsum_reference(kind, order):
    # the reference contracts in another order, so values agree to rounding (1e-14
    # absolute on coordinates and Jacobians of size O(1)), not bit for bit
    mesh = disk_mesh(4, order) if kind == "disk" else build_square_mesh(3, order)
    rule = triangle_rule(8)
    for elems in (None, np.array([3, 0, 7])):
        pts, jac, det = batched_geometry(mesh, rule.points, elems)
        coords = mesh.nodes[mesh.elements if elems is None else mesh.elements[elems]]
        phi = tri_shape(order, rule.points)
        dphi = tri_shape_grad(order, rule.points)
        ref_jac = np.einsum("mbr,ebx->emxr", dphi, coords)
        np.testing.assert_allclose(pts, np.einsum("mb,ebx->emx", phi, coords), rtol=0, atol=1e-14)
        np.testing.assert_allclose(jac, ref_jac, rtol=0, atol=1e-14)
        np.testing.assert_allclose(det, np.linalg.det(ref_jac), rtol=0, atol=1e-14)
        # the per-point map at (element, rule point) pairs gives the same
        rows = np.arange(mesh.n_elements) if elems is None else elems
        m = len(rule.points)
        got = geometry_map(mesh, np.repeat(rows, m), np.tile(rule.points, (len(rows), 1)))
        for g, want in zip(got, (pts, jac)):
            assert np.abs(g - want.reshape(g.shape)).max() <= 1e-14 * np.abs(want).max()


def all_pairs_diameter(mesh):
    """Largest node distance within an element over all (ne, nb, nb) node pairs at once."""
    c = mesh.nodes[mesh.elements]
    return float(np.linalg.norm(c[:, :, None, :] - c[:, None, :, :], axis=-1).max())


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("order", [1, 2])
def test_h_is_the_all_pairs_diameter(n, order):
    for mesh in (disk_mesh(n, order), build_square_mesh(n, order)):
        assert mesh.h == all_pairs_diameter(mesh)


@pytest.mark.parametrize("order", [1, 2])
def test_inverted_element_is_refused_before_assembly(order):
    # a Mesh built directly (as from_json and the remesh oracle do) with one
    # interior element's vertex order flipped: its Jacobian is negative, and
    # the first assembly on it refuses the mesh
    from h32fem.assembly import grams_of

    m = disk_mesh(3, order)
    e = np.setdiff1d(np.arange(m.n_elements), m.face_elem)[0]
    elements = m.elements.copy()
    # swap vertices 1 and 2; for k=2 the midside nodes of edges 01, 12, 20 follow
    flip = [0, 2, 1] if order == 1 else [0, 2, 1, 5, 4, 3]
    elements[e] = elements[e, flip]
    bad = Mesh(m.nodes, elements, order, m.domain_kind)
    with pytest.raises(RuntimeError, match="nonpositive Jacobian"):
        grams_of(bad)
    grams_of(Mesh(m.nodes, m.elements, order, m.domain_kind))


@pytest.mark.parametrize(
    "kind,n",
    [("disk", n) for n in (2, 3, 5, 8)] + [("square", n) for n in (2, 3, 5)],
)
def test_p2_dof_map_over_p1_is_the_numbering_of_the_order_2_mesh(kind, n):
    build = disk_mesh if kind == "disk" else build_square_mesh
    assert np.array_equal(dof_map(build(n, 1), 2), build(n, 2).elements)


@pytest.mark.parametrize("kind,n", [("disk", 3), ("square", 3), ("square", 4)])
def test_p3_function_is_continuous_across_every_interior_edge(kind, n):
    # a random P3 function numbered by dof_map(m, 3), read on each interior
    # edge from both of its elements, which traverse it in opposite directions
    m = (disk_mesh if kind == "disk" else build_square_mesh)(n, 1)
    dofs = dof_map(m, 3)
    assert np.array_equal(np.unique(dofs), np.arange(dofs.max() + 1))
    c = np.random.default_rng(n).normal(size=dofs.max() + 1)
    t = np.linspace(0.0, 1.0, 7)
    sides = {}
    for e, le in np.ndindex(m.n_elements, 3):
        a, b = m.elements[e, [le, (le + 1) % 3]]
        vals = tri_shape(3, tri_edge_ref_points(le, t)) @ c[dofs[e]]
        sides.setdefault((min(a, b), max(a, b)), []).append(vals if a < b else vals[::-1])
    shared = [v for v in sides.values() if len(v) == 2]
    assert len(shared) == len(sides) - len(m.boundary_faces)
    assert max(np.abs(u - v).max() for u, v in shared) <= 1e-13
