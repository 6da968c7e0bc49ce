import numpy as np
import pytest

from h32fem import solvers
from h32fem.assembly import (
    FeFunction,
    grams_of,
    nodal_interp_bulk,
    trace,
    zero_function,
)
from h32fem.interp import dirichlet_lift_from_data, overkill_mesh
from h32fem.meshing import disk_mesh
from h32fem.assembly import gradient_pairing_load
from h32fem.norms import h1_norm, h_s_norms
from h32fem.solvers import (
    deformation_field,
    deformed_dirichlet_energy,
    solve_dirichlet_fe,
    solve_robin_fe,
)


def _interior_residual(grams, u, f_h):
    """Max interior residual |m(f, phi_i) - a(u, phi_i)|."""
    r = grams.M_bulk @ f_h.coeffs - grams.A_bulk @ u.coeffs
    return float(np.abs(r[grams.mesh.interior_node_ids]).max())


def test_dirichlet_zero_data(square4, square4_grams):
    u = solve_dirichlet_fe(zero_function(square4), zero_function(square4, "surface"))
    assert np.abs(u.coeffs).max() == 0.0


def test_dirichlet_linear_harmonic(square4, square4_grams):
    gx = trace(nodal_interp_bulk(square4, lambda p: p[:, 0]))
    u = solve_dirichlet_fe(zero_function(square4), gx)
    ux = nodal_interp_bulk(square4, lambda p: p[:, 0])
    assert np.abs(u.coeffs - ux.coeffs).max() < 1e-12
    assert _interior_residual(square4_grams, u, zero_function(square4)) < 1e-12


def test_dirichlet_residual_random(square4, square4_grams, rng):
    f = FeFunction(square4, rng.normal(size=square4.n_nodes))
    gs = trace(nodal_interp_bulk(square4, lambda p: np.sin(p[:, 0])))
    u = solve_dirichlet_fe(f, gs)
    scale = max(1.0, np.abs(f.coeffs).max())
    assert _interior_residual(square4_grams, u, f) < 1e-12 * scale
    assert np.abs(trace(u).coeffs - gs.coeffs).max() == 0.0


def test_robin_constant(square4):
    ones = trace(nodal_interp_bulk(square4, lambda p: np.ones(len(p))))
    u = solve_robin_fe(zero_function(square4), ones)
    assert np.abs(u.coeffs - 1.0).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_robin_matrix_is_the_selector_form(order, monkeypatch, trace_selector):
    # M_surf scattered to the boundary rows and columns is R^T M_surf R:
    # the same sparsity pattern and the same values, bit for bit
    factored = []
    monkeypatch.setattr(solvers, "_spd_solver", lambda A: factored.append(A))
    mesh = disk_mesh(4, order)
    solvers._robin_solver(mesh)
    g = grams_of(mesh)
    R = trace_selector(mesh)
    (got,), want = factored, (g.A_bulk + R.T @ g.M_surf @ R).tocsr()
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("order", [1, 2])
def test_robin_load_is_the_selector_form(order, monkeypatch, trace_selector, rng):
    # M_surf g added at the boundary rows is R^T M_surf g, bit for bit
    monkeypatch.setattr(solvers, "_robin_solver", lambda mesh: lambda rhs: rhs)
    mesh = disk_mesh(4, order)
    f = FeFunction(mesh, rng.normal(size=mesh.n_nodes))
    gs = FeFunction(mesh, rng.normal(size=len(mesh.boundary_node_ids)), "surface")
    load = solve_robin_fe(f, gs).coeffs    # the solve is the identity here
    g, R = grams_of(mesh), trace_selector(mesh)
    assert np.array_equal(load, g.M_bulk @ f.coeffs + R.T @ (g.M_surf @ gs.coeffs))


def test_surrogates_constant(disk4k1):
    fine = overkill_mesh(disk4k1)
    assert fine.h <= disk4k1.h / 4 + 1e-12
    one = trace(nodal_interp_bulk(disk4k1, lambda p: np.ones(len(p))))
    zero = zero_function(disk4k1, "bulk0")
    sol = dirichlet_lift_from_data(zero, one)
    assert sol.mesh is fine
    assert np.abs(sol.coeffs - 1.0).max() < 1e-11


def test_homogeneous_smoothing_proxy():
    # Dirichlet data of unit boundary H^{1/2} scale: the H1 norm of the
    # solution stays bounded across overkill meshes (of 8 and 16 rings)
    vals = []
    for m in (disk_mesh(2, 1), disk_mesh(4, 1)):
        zero = zero_function(m, "bulk0")
        g_h = trace(nodal_interp_bulk(m, lambda p: np.cos(2.0 * np.arctan2(p[:, 1], p[:, 0]))))
        sol = dirichlet_lift_from_data(zero, g_h)
        gs = trace(sol)
        vals.append(h1_norm(sol) / h_s_norms([gs], 0.5)[0])
    assert max(vals) / min(vals) < 2.0


def test_deformed_energy_zero_and_conformal(disk4k2):
    g = grams_of(disk4k2)
    w = nodal_interp_bulk(disk4k2, lambda p: np.sin(p[:, 0]) * p[:, 1])
    z = nodal_interp_bulk(disk4k2, lambda p: np.cos(p[:, 1]) + p[:, 0] ** 2)
    a0 = float(w.coeffs @ (g.A_bulk @ z.coeffs))
    e0 = FeFunction(disk4k2, np.zeros((disk4k2.n_nodes, 2)))
    assert abs(deformed_dirichlet_energy(e0, w, z, "pullback") - a0) < 1e-12
    assert abs(deformed_dirichlet_energy(e0, w, z, "remesh") - a0) < 1e-12
    ec = FeFunction(disk4k2, 0.07 * disk4k2.nodes.copy())
    assert abs(deformed_dirichlet_energy(ec, w, z, "pullback") - a0) < 1e-12


def _random_smooth_displacement(mesh, rng, scale=0.04):
    a, b, c, d, e, f = rng.normal(size=6) * scale
    P = mesh.nodes
    field = np.column_stack(
        [
            a + b * P[:, 0] + c * P[:, 1] + d * P[:, 0] * P[:, 1],
            e + f * P[:, 0] - b * P[:, 1] + d * (P[:, 0] ** 2 - P[:, 1] ** 2) / 2,
        ]
    )
    return FeFunction(mesh, field)


@pytest.mark.parametrize("order,tol", [(1, 1e-8), (2, 1e-6)])
def test_pullback_vs_remesh_cross_oracle(order, tol, rng):
    from h32fem.experiments import get_mesh

    m = get_mesh("disk", 3, order)
    w = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) * p[:, 1])
    z = nodal_interp_bulk(m, lambda p: np.cos(p[:, 1]) + p[:, 0] ** 2)
    for _ in range(10):
        ex = _random_smooth_displacement(m, rng)
        v1 = deformed_dirichlet_energy(ex, w, z, "pullback")
        v2 = deformed_dirichlet_energy(ex, w, z, "remesh")
        assert abs(v1 - v2) <= tol * max(abs(v1), 1e-30)


@pytest.mark.parametrize("order", [1, 2])
def test_deformed_energy_difference_is_the_deformation_field_pairing(order):
    # the two library paths of deformation_discrete: the pullback energy minus
    # the undeformed one is the gradient pairing of (B - I) grad w with z
    m = disk_mesh(6, order)
    psi = np.column_stack([np.sin(m.nodes[:, 0]) * m.nodes[:, 1] ** 2 + m.nodes[:, 0],
                           np.cos(m.nodes[:, 1]) - 0.5 * m.nodes[:, 0] ** 2])
    ex = FeFunction(m, m.h**1.6 * psi)
    w = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0] + 0.2 * p[:, 1]))
    z = nodal_interp_bulk(m, lambda p: np.cos(p[:, 1]) + p[:, 0] ** 2)
    dE = deformed_dirichlet_energy(ex, w, z) - float(w.coeffs @ (grams_of(m).A_bulk @ z.coeffs))
    paired = float(gradient_pairing_load(deformation_field(ex, w), m) @ z.coeffs)
    assert abs(dE) > 1e-4
    assert abs(dE - paired) <= 1e-12 * h1_norm(w) * h1_norm(z)


def test_inverted_deformation_raises(disk4k1):
    w = nodal_interp_bulk(disk4k1, lambda p: p[:, 0])
    # x -> (-x, y) flips orientation
    flip = np.column_stack([-2.0 * disk4k1.nodes[:, 0], np.zeros(disk4k1.n_nodes)])
    with pytest.raises(RuntimeError):
        deformed_dirichlet_energy(FeFunction(disk4k1, flip), w, w, "pullback")


def test_unknown_kind_and_method(square4):
    w = nodal_interp_bulk(square4, lambda p: p[:, 0])
    e0 = FeFunction(square4, np.zeros((square4.n_nodes, 2)))
    with pytest.raises(ValueError):
        deformed_dirichlet_energy(e0, w, w, "warp")
