import math

import numpy as np
import pytest

from fracstep.problems import three_zone_mesh, two_zone_unit_mesh
from fracstep.sem import (
    SpectralMesh,
    assemble,
    h1_projection,
    interpolate,
    lgl_rules,
)

import oracles


def test_lgl_degree_two_closed_form():
    x, w = lgl_rules([2])[2]
    np.testing.assert_allclose(x, [-1.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_lgl_degree_four_closed_form():
    x, w = lgl_rules([4])[4]
    r = math.sqrt(3.0 / 7.0)
    np.testing.assert_allclose(x, [-1.0, -r, 0.0, r, 1.0], atol=1e-14)
    np.testing.assert_allclose(
        w, [1.0 / 10.0, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 1.0 / 10.0], atol=1e-14
    )


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 16, 32])
def test_lgl_weights_sum_to_two(N):
    _, w = lgl_rules([N])[N]
    assert np.sum(w) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("N", [3, 6, 11])
def test_lgl_quadrature_exactness(N):
    rng = np.random.default_rng(42 + N)
    x, w = lgl_rules([N])[N]
    for _ in range(10):
        coeffs = rng.normal(size=2 * N)  # degree 2N-1
        p = np.polynomial.Polynomial(coeffs)
        exact = (p.integ()(1.0) - p.integ()(-1.0))
        quad = float(np.dot(w, p(x)))
        assert quad == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_lgl_symmetry():
    x, w = lgl_rules([9])[9]
    np.testing.assert_allclose(x, -x[::-1], atol=0.0)
    np.testing.assert_allclose(w, w[::-1], atol=0.0)


@pytest.fixture
def paper_mesh():
    return SpectralMesh([-1.0, -0.5, 0.5, 1.0], (24, 32, 24))


def test_mesh_validation():
    with pytest.raises(ValueError):
        SpectralMesh([0.0, 0.0, 1.0], (2, 2))
    with pytest.raises(ValueError):
        SpectralMesh([0.0, 1.0], (2, 2))
    with pytest.raises(ValueError):
        SpectralMesh([0.0, 1.0], (0,))
    # each of these used to fail only inside a solve, with a message that
    # named neither the breakpoints nor the degrees
    with pytest.raises(ValueError, match=r"finite and strictly increasing, got \[0\.0, nan, 1\.0\]"):
        SpectralMesh([0.0, math.nan, 1.0], (8, 8))
    with pytest.raises(ValueError, match=r"finite and strictly increasing, got \[0\.0, 0\.5, inf\]"):
        SpectralMesh([0.0, 0.5, math.inf], (8, 8))
    with pytest.raises(ValueError, match=r"\[0\.0, 1\.0\] with degrees \(1,\) leave no interior degree of freedom"):
        SpectralMesh([0.0, 1.0], (1,))
    SpectralMesh([0.0, 1.0], (2,))  # one interior dof
    SpectralMesh([0.0, 0.5, 1.0], (1, 1))


def test_mesh_shared_interface_dofs(paper_mesh):
    # interface nodes are stored once
    assert paper_mesh.n_dofs == 24 + 32 + 24 + 1
    assert paper_mesh.element_dofs[0][-1] == paper_mesh.element_dofs[1][0]


def test_interpolation_reproduces_polynomials(paper_mesh):
    poly = np.polynomial.Polynomial([0.3, -1.0, 2.0, 0.5])
    coeffs = interpolate(poly, paper_mesh)
    assert paper_mesh.l2_norm_against(coeffs, poly) <= 1e-13


def test_interpolation_of_sine_is_spectral(paper_mesh):
    f = lambda x: np.sin(2.0 * np.pi * x)
    coeffs = interpolate(f, paper_mesh)
    assert paper_mesh.l2_norm_against(coeffs, f) <= 1e-10


def test_interpolation_of_zero(paper_mesh):
    coeffs = interpolate(lambda x: np.zeros_like(x), paper_mesh)
    assert np.all(coeffs == 0.0)


def test_projection_idempotent_on_space():
    mesh = SpectralMesh([-1.0, 0.0, 1.0], (6, 6))
    # member of the constrained space: piecewise polynomial vanishing at +-1
    f = lambda x: (1.0 - x) * (1.0 + x) * (0.25 + x)
    nodal = interpolate(f, mesh)
    proj = h1_projection(f, mesh)
    np.testing.assert_allclose(proj, nodal, atol=1e-12)


def test_projection_zero(paper_mesh):
    proj = h1_projection(lambda x: np.zeros_like(x), paper_mesh)
    assert np.max(np.abs(proj)) == 0.0


def _h1_seminorm_defect(mesh, coeffs, fprime):
    """Dense-quadrature H1-seminorm of (coeffs' - fprime)."""
    from fracstep.sem import _diff_matrix, _lagrange_eval_matrix

    total = 0.0
    for i, N in enumerate(mesh.degrees):
        a, b = mesh.breakpoints[i], mesh.breakpoints[i + 1]
        xq, wq = lgl_rules([N + 20])[N + 20]
        xp = a + (xq + 1.0) * (b - a) / 2.0
        wp = wq * (b - a) / 2.0
        nodes = mesh.element_nodes(i)
        dvals = (_lagrange_eval_matrix(nodes, xp) @ _diff_matrix(nodes)) @ coeffs[
            mesh.element_dofs[i]
        ]
        total += float(np.dot(wp, (dvals - fprime(xp)) ** 2))
    return math.sqrt(total)


def test_projection_spectral_decay():
    f = lambda x: np.sin(np.pi * x)
    fprime = lambda x: np.pi * np.cos(np.pi * x)
    errs = []
    for deg in (4, 8, 12):
        mesh = SpectralMesh([-1.0, 1.0], (deg,))
        proj = h1_projection(f, mesh)
        errs.append(_h1_seminorm_defect(mesh, proj, fprime))
    assert errs[1] <= errs[0] / 10.0
    assert errs[2] <= errs[1] / 10.0 or errs[2] < 1e-10


def test_projection_orthogonality():
    f = lambda x: np.sin(np.pi * x)
    fprime = lambda x: np.pi * np.cos(np.pi * x)
    mesh = SpectralMesh([-1.0, 0.0, 1.0], (16, 16))
    proj = h1_projection(f, mesh)
    # dense-quadrature check of (d/dx (Pf - f), d/dx v) for every basis v
    forms = mesh.forms()
    defect = forms.stiffness @ proj
    # analytic right-hand side (d/dx f, d/dx v) by per-element dense rules
    rhs = np.zeros(mesh.n_dofs)
    for i, N in enumerate(mesh.degrees):
        a, b = mesh.breakpoints[i], mesh.breakpoints[i + 1]
        xq, wq = lgl_rules([N + 20])[N + 20]
        xp = a + (xq + 1.0) * (b - a) / 2.0
        wp = wq * (b - a) / 2.0
        idx = mesh.element_dofs[i]
        nodes = mesh.element_nodes(i)
        # derivative of each Lagrange basis function at the dense points
        from fracstep.sem import _diff_matrix, _lagrange_eval_matrix

        E = _lagrange_eval_matrix(nodes, xp)
        D = _diff_matrix(nodes)
        dbasis = E @ D
        rhs[idx] += dbasis.T @ (wp * fprime(xp))
    resid = (defect - rhs)[mesh.interior]
    assert np.max(np.abs(resid)) <= 1e-11


def test_assembly_symmetry_and_positivity(paper_mesh):
    forms = assemble(paper_mesh)
    S0 = forms.stiffness0()
    assert np.max(np.abs(S0 - S0.T)) <= 1e-13 * np.max(np.abs(S0))
    eigs = np.linalg.eigvalsh(S0)
    assert eigs.min() > 0
    assert np.all(forms.mass0() > 0)


def test_assembly_random_form_symmetry(paper_mesh):
    forms = assemble(paper_mesh)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.normal(size=paper_mesh.n_dofs)
        v = rng.normal(size=paper_mesh.n_dofs)
        suv = float(u @ forms.stiffness @ v)
        svu = float(v @ forms.stiffness @ u)
        scale = math.sqrt(abs(u @ forms.stiffness @ u) * abs(v @ forms.stiffness @ v))
        assert abs(suv - svu) <= 1e-13 * max(scale, 1.0)


def test_hat_function_stiffness_entry():
    # two linear elements of size h: the interior hat has S_ii = 2/h
    h = 0.4
    mesh = SpectralMesh([0.0, h, 2 * h], (1, 1))
    forms = assemble(mesh)
    mid = mesh.element_dofs[0][-1]
    assert forms.stiffness[mid, mid] == pytest.approx(2.0 / h, rel=1e-13)


def test_mass_of_ones_is_measure(paper_mesh):
    forms = assemble(paper_mesh)
    assert float(np.sum(forms.mass_diag)) == pytest.approx(2.0, rel=1e-13)


def test_poisson_manufactured_solution():
    mesh = SpectralMesh([-1.0, 0.0, 1.0], (16, 16))
    forms = mesh.forms()
    rhs_fun = lambda x: np.pi**2 * np.sin(np.pi * x)
    rhs = (forms.mass_diag * interpolate(rhs_fun, mesh))[mesh.interior]
    sol = np.zeros(mesh.n_dofs)
    sol[mesh.interior] = np.linalg.solve(forms.stiffness0(), rhs)
    err = mesh.l2_norm_against(sol, lambda x: np.sin(np.pi * x))
    assert err <= 1e-10


@pytest.mark.parametrize("mesh", [three_zone_mesh(), two_zone_unit_mesh(16)], ids=["three_zone", "two_zone"])
def test_modal_basis_diagonalises_the_pencil(mesh):
    # Phi^T Md Phi = I and Phi^T S0 Phi = diag(lam) on the shipped meshes;
    # the lowest modes, which carry a smooth solution, match the continuous
    # Dirichlet eigenvalues (k pi / L)^2 to a few ulps; a basis taken from
    # S0 itself, eigh(Md^-1/2 S0 Md^-1/2), misses them by 2.4e-12 on the
    # three-zone mesh
    forms = mesh.forms()
    Md, S0 = forms.mass0(), forms.stiffness0()
    Phi, lam = forms.modes
    assert np.max(np.abs(Phi.T @ (Md[:, None] * Phi) - np.eye(len(lam)))) <= 1e-13
    assert np.max(np.abs(Phi.T @ S0 @ Phi - np.diag(lam))) <= 1e-11 * lam.max()
    a, b = mesh.breakpoints[[0, -1]]
    k = np.arange(1, 4)
    assert np.max(np.abs(lam[:3] / (k * np.pi / (b - a)) ** 2 - 1.0)) <= 5e-13
    assert np.all(np.diff(lam) > 0.0)
    assert not Phi.flags.writeable and not lam.flags.writeable
    assert forms.modes is forms.modes  # one eigendecomposition per mesh


def test_element_setup_matches_loops_bitwise():
    # the array forms keep every sum and product in the loops' order; the LGL
    # rules of many degrees, built in one Newton pass, each have the bits of
    # a pass over that degree alone
    from fracstep.sem import _barycentric_weights, _diff_matrix, _lagrange_eval_matrix

    rules = lgl_rules(range(1, 60))
    assert sorted(rules) == list(range(1, 60))
    for N in range(1, 60):
        x, w = rules[N]
        xt, wt = oracles.lgl_nodes_by_table(N)
        assert np.array_equal(x, xt) and np.array_equal(w, wt), N
        assert all(np.array_equal(a, b) for a, b in zip(lgl_rules([N])[N], rules[N])), N
        assert np.array_equal(_barycentric_weights(x), oracles.barycentric_weights_by_loop(x)), N
        assert np.array_equal(_diff_matrix(x), oracles.diff_matrix_by_loop(x)), N
        # dense points as the error norms use them, plus nodes hit exactly
        pts = np.concatenate((lgl_rules([N + 16])[N + 16][0], x[::2], [0.3, -0.7]))
        assert np.array_equal(_lagrange_eval_matrix(x, pts), oracles.lagrange_eval_matrix_by_loop(x, pts)), N
    # a mesh with repeated degrees: its element rules and its error norms'
    # N + 16 rules, mapped to each element, as the per-degree oracle gives them
    mesh = SpectralMesh([-1.0, -0.5, 0.5, 1.0], (24, 32, 24))
    for i, (N, (xp, wp, _)) in enumerate(zip(mesh.degrees, mesh._dense_quadrature())):
        a, b = mesh.breakpoints[i : i + 2]
        x, _ = oracles.lgl_nodes_by_table(N)
        assert np.array_equal(mesh.element_nodes(i), a + (x + 1.0) * (b - a) / 2.0), N
        xq, wq = oracles.lgl_nodes_by_table(N + 16)
        assert np.array_equal(xp, a + (xq + 1.0) * (b - a) / 2.0) and np.array_equal(wp, wq * (b - a) / 2.0), N
