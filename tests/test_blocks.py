"""Whole-mesh work at rule points in element blocks (`assembly._element_blocks`).

Each blocked consumer equals its whole-mesh formula, kept here as the
reference, on blocks made small enough that many run; the multilinear
integral's memory is bounded by the block budget, not by the mesh.
"""

import tracemalloc

import numpy as np
import pytest

from h32fem import assembly
from h32fem.assembly import (
    FeFunction,
    _bulk_elements,
    _eig_bound,
    _element_blocks,
    _integrate,
    _scatter,
    assemble_grams,
    bulk_quad_data,
    eig_bound,
    eval_on_elements,
    gradients_on_elements,
    nodal_interp_bulk,
)
from h32fem.interp import sampled_w1inf
from h32fem.meshing import disk_mesh
from h32fem.studies import SMOOTH_SCALAR, SMOOTH_SCALAR_2, bulk_interp_errors, multilinear_gradient_integral

RTOL = 1e-13


def T3(g1, g2, gw):
    return (g1[..., 0] * g2[..., 1] - 0.5 * g1[..., 1] * g2[..., 0]) * (gw[..., 0] + 0.7 * gw[..., 1])


def T_vec(g1, gv, gw):
    # a 2-vector field's gradients (ne, m, 2, 2) against two scalar ones
    return g1[..., 0] * np.einsum("...xy,...y->...x", gv, gw)[..., 1]


def close(got, want):
    return abs(got - want) <= RTOL * abs(want)


@pytest.fixture(params=[1, 2])
def small_blocks(request, monkeypatch):
    """disk(8, k) with a 16 KiB block budget, and the blocks each record made."""
    monkeypatch.setattr(assembly, "_BLOCK_BYTES", 16 * 1024)
    made = []

    def counted(qd, point_bytes):
        blocks = list(_element_blocks(qd, point_bytes))
        made.append(len(blocks))
        return iter(blocks)

    for module in ("assembly", "studies", "interp"):
        monkeypatch.setattr(f"h32fem.{module}._element_blocks", counted)
    return disk_mesh(8, request.param), made


def fields(mesh):
    u1, u2 = nodal_interp_bulk(mesh, SMOOTH_SCALAR), nodal_interp_bulk(mesh, SMOOTH_SCALAR_2)
    w = nodal_interp_bulk(mesh, lambda p: np.cos(p[:, 0] - 0.4 * p[:, 1]))
    return u1, u2, w, FeFunction(mesh, np.column_stack([u1.coeffs, w.coeffs]))


def test_element_blocks_are_views_of_the_record(small_blocks):
    mesh, _ = small_blocks
    qd = bulk_quad_data(mesh)
    blocks = list(_element_blocks(qd, 16))
    assert len(blocks) > 1
    assert np.concatenate([np.arange(mesh.n_elements)[b["elems"]] for b in blocks]).tolist() == list(
        range(mesh.n_elements))
    for b in blocks:
        for key in ("pts", "det", "jinv"):
            assert np.shares_memory(b[key], qd[key]) and b[key].strides == qd[key].strides
        assert b["phi"] is qd["phi"] and b["rule"] is qd["rule"]


@pytest.mark.parametrize("lifted", [False, True])
def test_multilinear_integral_in_blocks(small_blocks, lifted):
    mesh, made = small_blocks
    qd = bulk_quad_data(mesh, lifted=lifted)
    u1, u2, w, vv = fields(mesh)
    for fs, fn in (([u1, u2, w], T3), ([u1, vv, w], T_vec)):
        want = _integrate(qd, fn(*(gradients_on_elements(f, qd) for f in fs)))
        assert close(multilinear_gradient_integral(fs, fn, qd), want)
    assert min(made) > 1


def test_bulk_interp_errors_in_blocks(small_blocks):
    mesh, made = small_blocks
    qd = bulk_quad_data(mesh)
    vals, grads = eval_on_elements(nodal_interp_bulk(mesh, SMOOTH_SCALAR))
    pts = qd["pts"].reshape(-1, 2)
    err = vals - SMOOTH_SCALAR(pts).reshape(vals.shape)
    grad_err = grads - SMOOTH_SCALAR.grad(pts).reshape(grads.shape)
    w, det = qd["rule"].weights, qd["det"]
    l2sq = np.einsum("q,eq,eq->", w, det, err**2)
    h1sq = l2sq + np.einsum("q,eq,eqx->", w, det, grad_err**2)
    got = bulk_interp_errors(mesh, SMOOTH_SCALAR)
    assert close(got[0], np.sqrt(l2sq)) and close(got[1], np.sqrt(h1sq))
    assert made[-1] > 1


@pytest.mark.parametrize("lifted", [False, True])
def test_sampled_w1inf_in_blocks(small_blocks, lifted):
    mesh, made = small_blocks
    qd = bulk_quad_data(mesh, lifted=lifted)
    for u in fields(mesh):
        vals, grads = eval_on_elements(u, qd)
        want = max(np.abs(vals).max(), np.linalg.norm(grads, axis=-1).max())
        assert close(sampled_w1inf(u, qd), want)
    assert min(made) > 1


@pytest.mark.parametrize("lifted", [False, True])
def test_bulk_gram_forms_in_blocks(small_blocks, lifted):
    mesh, made = small_blocks
    Me, Ae = _bulk_elements(bulk_quad_data(mesh, lifted=lifted))
    grams = assemble_grams(mesh, lifted)
    assert made[-1] > 1
    for got, mats in ((grams.M_bulk, Me), (grams.A_bulk, Ae)):
        want = _scatter(mats, mesh.elements, mesh.n_nodes)
        assert (got.indptr == want.indptr).all() and (got.indices == want.indices).all()
        assert np.abs(got.data - want.data).max() <= RTOL * np.abs(want.data).max()


def test_eig_bound_in_blocks(small_blocks):
    mesh, made = small_blocks
    want = _eig_bound(*_bulk_elements(bulk_quad_data(mesh)))
    assert close(eig_bound(mesh), want)
    assert made[-1] > 1


@pytest.mark.parametrize("rings", [24, 48])
def test_multilinear_integral_memory_is_bounded_by_the_block_budget(rings):
    # the whole-mesh integral held every rule point's gradients and the
    # integrand's temporaries at once: 29 MB on disk(48, 2)
    mesh = disk_mesh(rings, 2)
    qd = bulk_quad_data(mesh, lifted=True)
    u1, u2, w, vv = fields(mesh)
    for fs, fn in (([u1, u2, w], T3), ([u1, vv, w], T_vec)):
        tracemalloc.start()
        try:
            multilinear_gradient_integral(fs, fn, qd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * assembly._BLOCK_BYTES
