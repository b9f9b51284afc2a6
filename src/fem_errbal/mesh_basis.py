"""Uniform interval meshes, Lagrange bases on Gauss-Lobatto points, Gauss-Legendre quadrature.

All reference-cell machinery lives on [0, 1].  Physical cells are affine images
of the reference cell, so a basis function's k-th physical derivative is the
reference derivative divided by h**k.

Every reference-cell number is computed in stdlib `decimal` arithmetic at 60
significant digits and rounded to double once: Gauss-Legendre points
and weights, Gauss-Lobatto nodes, basis values and derivatives at a rule's
points, and exact cell integrals of products of basis functions.  The basis
polynomials interpolate the stored double nodes, so a table holds the
correctly rounded values of the very basis the solution is expanded in.

This keeps the element tables, and so the assembled systems, independent of
the numpy and LAPACK build.  Not every round-off floor is: the banded LU
that solves mixed and complex systems runs in the BLAS library, and its bytes
change with the kernel that library picks at run time.  numpy's `leggauss` takes its points from LAPACK `eigvalsh`,
applies one Newton step and normalizes the weights, which leaves the weights
several ulps off in a build-dependent way; a Vandermonde solve for the basis
coefficients adds its own LAPACK-dependent error.  With such tables the
assembled p=2 stiffness matrix does not annihilate constants, and that adds a
deterministic error growing like N**2 on top of the round-off branch.  No
table goes through LAPACK now.

Tables are cached per process and computed on first use; importing the module
computes nothing.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Iterator

import numpy as np

MAX_REFINEMENT = 40
MAX_DEGREE = 20
MAX_QUAD_POINTS = 32
# cells per block of every per-cell quadrature (see Mesh.cell_blocks); in
# timings at 2**18 cells, 1,024 was slower and 16,384 no faster
QUADRATURE_BLOCK = 4096

# working precision of the reference-cell computations; monomial coefficients
# of the degree-20 basis cost about 15 of these digits to cancellation
_DIGITS = 60
_CONTEXT = decimal.Context(prec=_DIGITS)
_ROOT_TOL = Decimal(10) ** (10 - _DIGITS)
_ROOT_MAX_STEPS = 200


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh on (0, 1) with 2**refinement_level cells."""

    refinement_level: int

    @property
    def cell_count(self) -> int:
        return 1 << self.refinement_level

    @property
    def h(self) -> float:
        # exact dyadic, so vertex coordinates k * h are exact as well
        return 2.0 ** (-self.refinement_level)

    def cell_blocks(self) -> Iterator[slice]:
        """Consecutive slices of QUADRATURE_BLOCK cells, or the whole mesh when smaller.

        A mesh of 2**level cells splits into full blocks, so every block has
        the shape of some whole mesh, and a per-cell sum taken block by block
        rounds as it does on the whole mesh.
        """
        t = self.cell_count
        return (slice(lo, min(lo + QUADRATURE_BLOCK, t)) for lo in range(0, t, QUADRATURE_BLOCK))

    def quadrature_points(self, points: np.ndarray, cells: slice = slice(None)) -> np.ndarray:
        """Physical images of reference points in each cell of the slice, shape (cells, points)."""
        c = np.arange(*cells.indices(self.cell_count))
        return (c[:, None] + points[None, :]) * self.h


def build_mesh(refinement_level: int) -> Mesh:
    if not isinstance(refinement_level, (int, np.integer)):
        raise ValueError("refinement level must be an integer")
    if refinement_level < 0 or refinement_level > MAX_REFINEMENT:
        raise ValueError(
            f"refinement level must be in [0, {MAX_REFINEMENT}], got {refinement_level}"
        )
    return Mesh(int(refinement_level))


# --- Legendre polynomials and their roots, in decimal ------------------------

def _legendre(n: int, x: Decimal) -> tuple[Decimal, Decimal, Decimal]:
    """P_n(x), P_n'(x) and P_n''(x) for n >= 1 and x in (-1, 1)."""
    prev, cur = Decimal(1), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    one_minus_x2 = 1 - x * x
    d1 = n * (prev - x * cur) / one_minus_x2
    d2 = (2 * x * d1 - n * (n + 1) * cur) / one_minus_x2
    return cur, d1, d2


def _root(fdf, lo: Decimal, hi: Decimal) -> Decimal:
    """Root of fdf(x)[0] inside the sign-changing bracket (lo, hi).

    Newton steps, bisecting whenever a step would leave the bracket.
    """
    lo_negative = fdf(lo)[0] < 0
    x = (lo + hi) / 2
    for _ in range(_ROOT_MAX_STEPS):
        f, df = fdf(x)
        if f == 0:
            return x
        if (f < 0) == lo_negative:
            lo = x
        else:
            hi = x
        new = x - f / df
        if abs(new - x) <= _ROOT_TOL:
            return new
        # lo and hi now bracket the root with x at one end
        x = new if lo < new < hi else (lo + hi) / 2
    raise RuntimeError("reference-cell root iteration did not converge")


@lru_cache(maxsize=None)
def _legendre_roots(n: int) -> tuple[Decimal, ...]:
    """Positive roots of P_n in decreasing order.

    The k-th largest root is cos(theta_k) with (k - 1/2) pi / (n + 1/2) <
    theta_k < k pi / (n + 1/2) (Szego, Orthogonal Polynomials, 6.21.2), which
    brackets each root on its own.
    """
    step = np.pi / (n + 0.5)
    with decimal.localcontext(_CONTEXT):
        return tuple(
            _root(
                lambda x: _legendre(n, x)[:2],
                Decimal(float(np.cos(k * step))),
                Decimal(float(np.cos((k - 0.5) * step))),
            )
            for k in range(1, n // 2 + 1)
        )


def _to_unit(xs: list[Decimal]) -> list[Decimal]:
    """Map points of [-1, 1] to [0, 1]."""
    return [(1 + x) / 2 for x in xs]


@lru_cache(maxsize=None)
def gauss_lobatto_nodes(p: int) -> np.ndarray:
    """Support points of the degree-p Lobatto family, mapped to [0, 1].

    Interior nodes are the roots of P_p'.  They interlace with the roots of
    P_p, so consecutive Legendre roots bracket each of them.
    """
    if not 1 <= p <= MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {p}")
    legendre = list(_legendre_roots(p)) + ([Decimal(0)] if p % 2 else [])
    with decimal.localcontext(_CONTEXT):
        positive = [
            _root(lambda x: _legendre(p, x)[1:], legendre[k + 1], legendre[k])
            for k in range((p - 1) // 2)
        ]
        middle = [Decimal(0)] if p % 2 == 0 else []
        interior = [-x for x in positive] + middle + positive[::-1]
        nodes = [Decimal(0)] + _to_unit(interior) + [Decimal(1)]
    mapped = np.array([float(v) for v in nodes])
    mapped.setflags(write=False)
    return mapped


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on the reference cell [0, 1]."""

    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_legendre_rule(n_q: int) -> QuadratureRule:
    if not 1 <= n_q <= MAX_QUAD_POINTS:
        raise ValueError(f"quadrature point count must be in [1, {MAX_QUAD_POINTS}], got {n_q}")
    positive = list(_legendre_roots(n_q))
    with decimal.localcontext(_CONTEXT):
        roots = [-x for x in positive] + ([Decimal(0)] if n_q % 2 else []) + positive[::-1]
        # w = 2 / ((1 - x^2) P_n'(x)^2) on [-1, 1], halved by the map to [0, 1]
        weights = [1 / ((1 - x * x) * _legendre(n_q, x)[1] ** 2) for x in roots]
        points = _to_unit(roots)
    pts = np.array([float(v) for v in points])
    wts = np.array([float(v) for v in weights])
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(pts, wts)


# --- Lagrange bases ------------------------------------------------------------

def _support_points(degree: int, continuous: bool) -> np.ndarray:
    if continuous:
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"continuous basis degree must be in [1, {MAX_DEGREE}]")
        return gauss_lobatto_nodes(degree)
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"basis degree must be in [0, {MAX_DEGREE}]")
    return gauss_lobatto_nodes(degree) if degree >= 1 else np.array([0.5])


@lru_cache(maxsize=None)
def _monomial_coeffs(degree: int, continuous: bool, order: int) -> tuple[tuple[Decimal, ...], ...]:
    """Monomial coefficients (lowest power first) of every basis function's order-th derivative."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    with decimal.localcontext(_CONTEXT):
        if order > 0:
            return tuple(
                tuple(k * c for k, c in enumerate(coeffs))[1:]
                for coeffs in _monomial_coeffs(degree, continuous, order - 1)
            )
        nodes = [Decimal(float(v)) for v in _support_points(degree, continuous)]
        out = []
        for i, xi in enumerate(nodes):
            coeffs = [Decimal(1)]
            for j, xj in enumerate(nodes):
                if j != i:
                    # multiply by (x - xj) / (xi - xj)
                    d = xi - xj
                    shifted = [Decimal(0)] + [c / d for c in coeffs]
                    coeffs = [s - c * xj / d for s, c in zip(shifted, coeffs + [Decimal(0)])]
            out.append(tuple(coeffs))
    return tuple(out)


def _evaluate(degree: int, continuous: bool, x: np.ndarray, order: int) -> np.ndarray:
    """Order-th derivatives of the basis at the double points x, shape (len(x), degree + 1)."""
    polys = _monomial_coeffs(degree, continuous, order)
    points = [Decimal(float(v)) for v in x]
    out = np.empty((len(points), len(polys)))
    with decimal.localcontext(_CONTEXT):
        for j, coeffs in enumerate(polys):
            for m, t in enumerate(points):
                acc = Decimal(0)
                for c in reversed(coeffs):
                    acc = acc * t + c
                out[m, j] = float(acc)
    return out


@lru_cache(maxsize=None)
def basis_table(degree: int, continuous: bool, n_quad: int, order: int,
                child: int | None = None) -> np.ndarray:
    """Order-th derivatives of the basis at the points of the n_quad-point rule.

    With child k in {0, 1} the points are taken in the k-th half of the cell,
    (points + k) / 2, as a parent cell sees the rule of its k-th child.
    Shape (n_quad, degree + 1), read-only, each entry rounded once.
    """
    if child not in (None, 0, 1):
        raise ValueError(f"child must be None, 0 or 1, got {child}")
    points = gauss_legendre_rule(n_quad).points
    if child is not None:
        points = (points + child) / 2
    table = _evaluate(degree, continuous, points, order)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def reference_integral(a: tuple[int, bool, int], b: tuple[int, bool, int]) -> np.ndarray:
    """Exact integrals over [0, 1] of a_i * b_j, each rounded once.

    `a` and `b` name a basis and a derivative of it as (degree, continuous,
    order); the result has shape (a's degree + 1, b's degree + 1) and is read-only.
    """
    pa = _monomial_coeffs(*a)
    pb = _monomial_coeffs(*b)
    with decimal.localcontext(_CONTEXT):
        inv = [1 / Decimal(k + 1) for k in range(len(pa[0]) + len(pb[0]))]
        out = np.array([
            [float(sum(ca * cb * inv[k + l] for k, ca in enumerate(ra) for l, cb in enumerate(rb)))
             for rb in pb]
            for ra in pa
        ])
    out.setflags(write=False)
    return out


class LagrangeBasis:
    """Nodal Lagrange basis on [0, 1].

    Degree 0 is allowed only for the discontinuous flavor (a single constant
    function with support point 1/2).  `eval` serves arbitrary points; values at
    a quadrature rule's points are cached by `basis_table`.
    """

    def __init__(self, degree: int, continuous: bool = True):
        self.nodes = _support_points(degree, continuous)
        self.degree = degree
        self.continuous = continuous

    def eval(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        """Evaluate all basis functions (or their order-th derivatives) at x in [0, 1].

        Returns an array of shape (len(x), degree + 1), each entry rounded once.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return _evaluate(self.degree, self.continuous, x, order)

