"""Catalog tests.

Norm values are checked against an independent 64-point Gauss quadrature
computed here, and frozen magnitudes for the documented cases.
"""

import numpy as np
import pytest

from fem_errbal.problem import CATALOG_NAMES, catalog, eval_exact, _check_consistency

_GX, _GW = np.polynomial.legendre.leggauss(16)
_GX = 0.5 * (_GX + 1.0)
_GW = 0.5 * _GW


def _l2(fn, panels=256):
    # composite 16-point Gauss so oscillatory integrands are resolved too
    offsets = (np.arange(panels)[:, None] + _GX[None, :]) / panels
    vals = fn(offsets.ravel())
    w = np.tile(_GW / panels, panels)
    return float(np.sqrt(np.sum(w * np.abs(vals) ** 2)))


def test_catalog_names_load():
    for name in CATALOG_NAMES:
        coeff = 1.0 if name.startswith("case") else None
        spec = catalog(name, coeff)
        assert spec.label.startswith(name)


def test_catalog_errors():
    with pytest.raises(ValueError, match="unknown problem"):
        catalog("bench-stokes")
    with pytest.raises(ValueError, match="coefficient"):
        catalog("case3")
    with pytest.raises(ValueError, match="no coefficient"):
        catalog("bench-poisson", 2.0)
    with pytest.raises(ValueError, match="positive"):
        catalog("case1", -1.0)
    for c in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"positive and finite, got {c}"):
            catalog("case1", float(c))


@pytest.mark.parametrize(
    "name,u_norm",
    [("bench-poisson", 0.92), ("bench-diffusion", 0.71), ("bench-helmholtz", 1.26)],
)
def test_benchmark_solution_norms(name, u_norm):
    spec = catalog(name)
    assert abs(_l2(spec.exact_u) - u_norm) < 0.01


@pytest.mark.parametrize(
    "name,f_norm,tol",
    [("bench-poisson", 1.60, 0.005), ("bench-diffusion", 42.99, 0.005)],
)
def test_benchmark_rhs_norms(name, f_norm, tol):
    spec = catalog(name)
    assert abs(_l2(spec.f) - f_norm) < tol


def test_helmholtz_boundary_values():
    spec = catalog("bench-helmholtz")
    assert abs(spec.exact_u(0.0) - 1.0) < 1e-14
    assert abs(spec.exact_ux(1.0)) < 1e-14
    # coefficient value frozen from the closed form 1/((1-i)e^{1+2i} + 1)
    a = 1.0 / ((1.0 - 1.0j) * np.exp(1.0 + 2.0j) + 1.0)
    assert abs(spec.exact_u(0.3) - (a * np.exp((1 + 1j) * 0.3) + (1 - a) * np.exp(-0.3j))) < 1e-15


def test_ode_residual_small_at_random_points():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.01, 0.99, 20)
    for name in ("bench-poisson", "bench-diffusion", "bench-helmholtz"):
        spec = catalog(name)
        res = spec.D_x(x) * spec.exact_ux(x) + spec.D(x) * spec.exact_uxx(x) + spec.r(x) * spec.exact_u(x) - spec.f(x)
        scale = max(1.0, float(np.max(np.abs(spec.f(x)))))
        assert np.max(np.abs(res)) < 1e-8 * scale


def test_consistency_checker_rejects_broken_spec():
    from dataclasses import replace

    spec = catalog("bench-poisson")
    broken = replace(spec, f=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(AssertionError, match="equation"):
        _check_consistency(broken)
    nan_valued = replace(spec, f=lambda x: np.full(np.shape(x), np.nan))
    with pytest.raises(AssertionError, match="equation"):
        _check_consistency(nan_valued)


def test_boundary_values_match_exact():
    for name in ("bench-poisson", "bench-diffusion", "bench-helmholtz"):
        spec = catalog(name)
        for bc in (spec.bc_left, spec.bc_right):
            exact = spec.exact_u(bc.location) if bc.kind == "dirichlet" else spec.exact_ux(bc.location)
            assert abs(complex(exact) - complex(bc.value)) <= 1e-12


@pytest.mark.parametrize(
    "c,norm",
    [(1e-2, 9.2), (1e-1, 8.8e-1), (1.0, 1.8e-2), (1e1, 1.8e-4), (1e2, 1.8e-6)],
)
def test_case1_magnitude_sweep(c, norm):
    # documented magnitudes of ||u||_2 across the coefficient grid (plot
    # read-off precision, hence the 5% tolerance)
    spec = catalog("case1", c)
    assert abs(_l2(spec.exact_u) - norm) < 0.05 * norm


@pytest.mark.parametrize("c", [1e-4, 1e-2, 1.0, 1e2, 1e4])
def test_case5_norm_closed_form(c):
    # u = x / c, so ||u||_2 = 1 / (c sqrt(3))
    spec = catalog("case5", c)
    assert abs(_l2(spec.exact_u) - 1.0 / (c * np.sqrt(3.0))) < 1e-12 / c


def test_case_equation_orientation():
    # the stored right-hand side equals u_xx for the Poisson-type cases, so the
    # equation (D u_x)_x + r u = f holds with D = 1, r = 0
    for idx, c in ((1, 0.5), (2, 3.0), (3, 2.0), (4, 1.5)):
        spec = catalog(f"case{idx}", c)
        x = np.linspace(0.05, 0.95, 11)
        np.testing.assert_allclose(spec.f(x), spec.exact_uxx(x), rtol=1e-13, atol=1e-13)


def test_validation_problem_shape():
    spec = catalog("validation-helmholtz")
    assert spec.complex_valued
    assert not spec.has_exact
    assert abs(spec.D(0.0) - 0.01 * 1.01) < 1e-15
    assert abs(spec.D(1.0) - 1.01 * 0.01) < 1e-15
    assert complex(spec.r(0.3)) == -0.01j
    assert spec.bc_left.kind == "dirichlet" and spec.bc_right.kind == "neumann"
    with pytest.raises(ValueError, match="closed-form"):
        eval_exact(spec, "u", np.array([0.5]))


def test_eval_exact_variables():
    spec = catalog("bench-diffusion")
    x = np.array([0.25])
    assert abs(eval_exact(spec, "u", x)[0] - 1.0) < 1e-14
    assert abs(eval_exact(spec, "ux", x)[0]) < 1e-13
    with pytest.raises(ValueError, match="unknown variable"):
        eval_exact(spec, "du", x)
