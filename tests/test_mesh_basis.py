"""Mesh, basis, and quadrature tests.

Frozen node values come from closed-form roots of Legendre-polynomial
derivatives (computed by hand from the polynomial coefficients), not from the
implementation under test.
"""

import decimal
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fem_errbal import mesh_basis
from fem_errbal.assembly import assemble_mixed, assemble_standard
from fem_errbal.mesh_basis import (
    LagrangeBasis,
    basis_table,
    build_mesh,
    gauss_legendre_rule,
    gauss_lobatto_nodes,
    reference_integral,
)
from fem_errbal.problem import catalog

# interior Lobatto nodes on [0,1]:
#   p=2: root of P2' = 3x           -> 1/2
#   p=3: roots of P3' ~ 15x^2-3     -> (1 -+ 1/sqrt(5))/2
#   p=4: roots of P4' ~ 140x^3-60x  -> 1/2, (1 -+ sqrt(3/7))/2
#   p=5: roots of P5' ~ 315x^4-210x^2+15 -> (1 -+ sqrt((210 +- sqrt(25200))/630))/2
_SQRT5 = np.sqrt(5.0)
_INTERIOR = {
    2: [0.5],
    3: [(1 - 1 / _SQRT5) / 2, (1 + 1 / _SQRT5) / 2],
    4: [(1 - np.sqrt(3 / 7)) / 2, 0.5, (1 + np.sqrt(3 / 7)) / 2],
    5: [
        0.11747233803526763,
        0.35738424175967745,
        0.6426157582403225,
        0.8825276619647324,
    ],
}


def test_mesh_geometry():
    mesh = build_mesh(3)
    assert mesh.cell_count == 8
    assert mesh.h == 0.125
    vertices = np.arange(mesh.cell_count + 1) * mesh.h
    assert vertices[-1] == 1.0
    # dyadic spacing is exact, not approximate
    assert np.all(np.diff(vertices) == mesh.h)
    assert build_mesh(0).cell_count == 1


@pytest.mark.parametrize("bad", [-1, 41, 2.5])
def test_mesh_rejects_bad_levels(bad):
    with pytest.raises(ValueError):
        build_mesh(bad)


@pytest.mark.parametrize("p,interior", sorted(_INTERIOR.items()))
def test_lobatto_interior_nodes(p, interior):
    nodes = gauss_lobatto_nodes(p)
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    np.testing.assert_allclose(nodes[1:-1], interior, atol=1e-14, rtol=0)


def test_lobatto_node_spec_example():
    nodes = gauss_lobatto_nodes(3)
    assert abs(nodes[1] - 0.2763932023) < 1e-9
    assert abs(nodes[2] - 0.7236067977) < 1e-9


@pytest.mark.parametrize("p", range(1, 21))
def test_lobatto_nodes_symmetric_and_sorted(p):
    nodes = gauss_lobatto_nodes(p)
    assert len(nodes) == p + 1
    assert np.all(np.diff(nodes) > 0)
    np.testing.assert_allclose(nodes + nodes[::-1], 1.0, atol=1e-14, rtol=0)


@pytest.mark.parametrize("p", [0, 21])
def test_lobatto_degree_bounds(p):
    with pytest.raises(ValueError):
        gauss_lobatto_nodes(p)


@pytest.mark.parametrize("n_q", [1, 2, 3, 5, 8, 13, 21, 32])
def test_quadrature_exactness(n_q):
    rule = gauss_legendre_rule(n_q)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    assert np.all(rule.points > 0) and np.all(rule.points < 1)
    # exact for monomials up to degree 2 n_q - 1; oracle is 1/(k+1)
    for k in range(2 * n_q):
        approx = np.sum(rule.weights * rule.points**k)
        assert abs(approx - 1.0 / (k + 1)) <= 1e-14 / (k + 1) + 1e-15


@pytest.mark.parametrize("n_q", [0, 33])
def test_quadrature_bounds(n_q):
    with pytest.raises(ValueError):
        gauss_legendre_rule(n_q)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 20])
def test_kronecker_delta(p):
    basis = LagrangeBasis(p)
    vals = basis.eval(basis.nodes, 0)
    np.testing.assert_allclose(vals, np.eye(p + 1), atol=1e-13, rtol=0)


@given(p=st.integers(min_value=1, max_value=20), x=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_partition_of_unity(p, x):
    basis = LagrangeBasis(p)
    vals, derivs = basis.eval(np.array([x]), 0), basis.eval(np.array([x]), 1)
    assert abs(vals.sum() - 1.0) <= 1e-13
    assert abs(derivs.sum()) <= 1e-10


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 9, 14, 20])
def test_interpolation_exactness(p):
    # interpolating a random polynomial of degree <= p reproduces it; the
    # oracle evaluates the monomial form by Horner's rule
    rng = np.random.default_rng(42)
    coeffs = rng.uniform(-1, 1, p + 1)
    basis = LagrangeBasis(p)
    nodal = np.polyval(coeffs, basis.nodes)
    x = rng.uniform(0, 1, 100)
    interp = basis.eval(x, 0) @ nodal
    exact = np.polyval(coeffs, x)
    np.testing.assert_allclose(interp, exact, atol=1e-12, rtol=0)
    dinterp = basis.eval(x, 1) @ nodal
    dexact = np.polyval(np.polyder(coeffs), x)
    np.testing.assert_allclose(dinterp, dexact, atol=1e-10, rtol=0)


def test_second_derivatives():
    basis = LagrangeBasis(4)
    coeffs = np.array([2.0, -1.0, 0.5, 3.0, -0.25])  # quartic, highest first
    nodal = np.polyval(coeffs, basis.nodes)
    x = np.linspace(0.05, 0.95, 19)
    d2 = basis.eval(x, 2) @ nodal
    d2_exact = np.polyval(np.polyder(coeffs, 2), x)
    np.testing.assert_allclose(d2, d2_exact, atol=1e-10, rtol=0)


def test_derivative_order_beyond_degree_is_zero():
    basis = LagrangeBasis(2)
    assert np.all(basis.eval(np.array([0.3]), 3) == 0.0)


def test_discontinuous_degree_zero():
    basis = LagrangeBasis(0, continuous=False)
    assert len(basis.nodes) == 1
    np.testing.assert_allclose(basis.eval(np.array([0.1, 0.9]), 0), 1.0)
    with pytest.raises(ValueError):
        LagrangeBasis(0, continuous=True)


# --- exact rounding of the reference-cell tables --------------------------------
# Oracles are closed forms evaluated at 50 digits and rounded to double once.

def _rounded(values):
    return np.array([float(v) for v in values])


def _closed_form_rules():
    """Gauss-Legendre rules with 2, 3 and 4 points mapped to [0, 1], as decimals."""
    with decimal.localcontext(decimal.Context(prec=50)):
        half = Decimal(1) / 2
        a = 1 / Decimal(3).sqrt()
        b = (Decimal(3) / 5).sqrt()
        r = (Decimal(6) / 5).sqrt()
        inner = (Decimal(3) / 7 - Decimal(2) / 7 * r).sqrt()
        outer = (Decimal(3) / 7 + Decimal(2) / 7 * r).sqrt()
        s30 = Decimal(30).sqrt()
        return {
            2: ([half - a / 2, half + a / 2], [half, half]),
            3: ([half - b / 2, half, half + b / 2],
                [Decimal(5) / 18, Decimal(4) / 9, Decimal(5) / 18]),
            4: ([half - outer / 2, half - inner / 2, half + inner / 2, half + outer / 2],
                [(18 - s30) / 72, (18 + s30) / 72, (18 + s30) / 72, (18 - s30) / 72]),
        }


@pytest.mark.parametrize("n_q", [2, 3, 4])
def test_gauss_rule_correctly_rounded(n_q):
    points, weights = _closed_form_rules()[n_q]
    rule = gauss_legendre_rule(n_q)
    assert np.array_equal(rule.points, _rounded(points))
    assert np.array_equal(rule.weights, _rounded(weights))


def test_lobatto_nodes_correctly_rounded():
    with decimal.localcontext(decimal.Context(prec=50)):
        half = Decimal(1) / 2
        a = 1 / Decimal(5).sqrt() / 2
        b = (Decimal(3) / 7).sqrt() / 2
        expected = {
            2: [0, half, 1],
            3: [0, half - a, half + a, 1],
            4: [0, half - b, half, half + b, 1],
        }
    for p, nodes in expected.items():
        assert np.array_equal(gauss_lobatto_nodes(p), _rounded(nodes))


def test_p2_table_correctly_rounded():
    # nodes 0, 1/2, 1: phi = (2x^2 - 3x + 1, 4x - 4x^2, 2x^2 - x), derivatives linear
    pts = gauss_legendre_rule(4).points
    with decimal.localcontext(decimal.Context(prec=50)):
        xs = [Decimal(float(x)) for x in pts]
        values = [[2 * x * x - 3 * x + 1, 4 * x - 4 * x * x, 2 * x * x - x] for x in xs]
        derivs = [[4 * x - 3, 4 - 8 * x, 4 * x - 1] for x in xs]
    assert np.array_equal(basis_table(2, True, 4, 0), [_rounded(row) for row in values])
    assert np.array_equal(basis_table(2, True, 4, 1), [_rounded(row) for row in derivs])


def test_p2_reference_stiffness_bit_exact():
    expected = np.array([[7.0, -8.0, 1.0], [-8.0, 16.0, -8.0], [1.0, -8.0, 7.0]]) / 3.0
    assert np.array_equal(reference_integral((2, True, 1), (2, True, 1)), expected)


def test_reference_integrals_match_quadrature():
    # a 4-point rule integrates these integrands of degree <= 6 exactly, so
    # double-precision quadrature differs only by its own few-ulp round-off
    rule = gauss_legendre_rule(4)
    for a, b in [((3, True, 0), (3, True, 0)), ((3, True, 1), (2, False, 0)),
                 ((3, True, 1), (3, True, 1))]:
        ta, tb = basis_table(*a[:2], 4, a[2]), basis_table(*b[:2], 4, b[2])
        quad = np.einsum("q,qi,qj->ij", rule.weights, ta, tb)
        exact = reference_integral(a, b)
        ulp = np.spacing(np.max(np.abs(exact)))
        np.testing.assert_allclose(exact, quad, atol=16 * ulp, rtol=0)


def test_child_tables_sit_in_cell_halves():
    basis = LagrangeBasis(3)
    points = gauss_legendre_rule(5).points
    for child in (0, 1):
        assert np.array_equal(basis_table(3, True, 5, 1, child),
                              basis.eval((points + child) / 2, 1))
    with pytest.raises(ValueError):
        basis_table(3, True, 5, 0, 2)


def _clear_table_caches():
    for obj in vars(mesh_basis).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def test_tables_build_without_lapack(monkeypatch):
    spec = catalog("bench-poisson")
    mesh = build_mesh(3)

    def build():
        out = []
        for p in (1, 2, 3, 5):
            out += [gauss_lobatto_nodes(p), gauss_legendre_rule(p + 2).points,
                    gauss_legendre_rule(p + 2).weights, basis_table(p, True, p + 2, 1),
                    basis_table(p - 1, False, p + 4, 0, 1),
                    reference_integral((p, True, 1), (p - 1, False, 0)),
                    assemble_standard(spec, mesh, p).matrix.ab,
                    assemble_mixed(spec, mesh, p).matrix.ab]
        return out

    before = build()

    def refuse(*args, **kwargs):
        raise AssertionError("reference-cell tables must not call LAPACK")

    for name in ("eigvalsh", "eigh", "eig", "solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    _clear_table_caches()
    try:
        after = build()
    finally:
        _clear_table_caches()
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
