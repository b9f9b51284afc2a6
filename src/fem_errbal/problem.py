"""Boundary-value problem definitions and the built-in catalog.

Every problem is an instance of

    (D(x) u_x)_x + r(x) u = f(x)   on (0, 1),

with a Dirichlet (u = g) or Neumann (u_x = h) condition at each endpoint.
The outward normal is -1 at x = 0 and +1 at x = 1.  Coefficients are
vectorized callables; D_x is supplied analytically rather than differenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

VARIABLES = ("u", "ux", "uxx")

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BoundaryCondition:
    side: str  # 'left' | 'right'
    kind: str  # 'dirichlet' | 'neumann'
    value: complex

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"unknown boundary side {self.side!r}")
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")

    @property
    def location(self) -> float:
        return 0.0 if self.side == "left" else 1.0

    @property
    def normal(self) -> float:
        return -1.0 if self.side == "left" else 1.0


@dataclass(frozen=True)
class ProblemSpec:
    label: str
    D: Callable[[np.ndarray], np.ndarray]
    D_x: Callable[[np.ndarray], np.ndarray]
    r: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    complex_valued: bool = False
    exact_u: Callable[[np.ndarray], np.ndarray] | None = None
    exact_ux: Callable[[np.ndarray], np.ndarray] | None = None
    exact_uxx: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def has_exact(self) -> bool:
        return self.exact_u is not None


def eval_exact(spec: ProblemSpec, var: str, x: np.ndarray) -> np.ndarray:
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}; expected one of {VARIABLES}")
    fn = {"u": spec.exact_u, "ux": spec.exact_ux, "uxx": spec.exact_uxx}[var]
    if fn is None:
        raise ValueError(f"problem {spec.label!r} has no closed-form solution")
    return fn(np.asarray(x))


def _const_real(value: float):
    def fn(x):
        return np.full(np.shape(x), value, dtype=float)

    return fn


def _const_complex(value: complex):
    def fn(x):
        return np.full(np.shape(x), value, dtype=complex)

    return fn


def _bench_poisson() -> ProblemSpec:
    def u(x):
        return np.exp(-((x - 0.5) ** 2))

    def ux(x):
        return -2.0 * (x - 0.5) * np.exp(-((x - 0.5) ** 2))

    def uxx(x):
        return (4.0 * x**2 - 4.0 * x - 1.0) * np.exp(-((x - 0.5) ** 2))

    g = float(np.exp(-0.25))
    return ProblemSpec(
        label="bench-poisson",
        D=_const_real(1.0),
        D_x=_const_real(0.0),
        r=_const_real(0.0),
        f=uxx,
        bc_left=BoundaryCondition("left", "dirichlet", g),
        bc_right=BoundaryCondition("right", "dirichlet", g),
        exact_u=u,
        exact_ux=ux,
        exact_uxx=uxx,
    )


def _bench_diffusion() -> ProblemSpec:
    def u(x):
        return np.sin(_TWO_PI * x)

    def ux(x):
        return _TWO_PI * np.cos(_TWO_PI * x)

    def uxx(x):
        return -(_TWO_PI**2) * np.sin(_TWO_PI * x)

    def f(x):
        return _TWO_PI * np.cos(_TWO_PI * x) - _TWO_PI**2 * np.sin(_TWO_PI * x) * (x + 1.0)

    return ProblemSpec(
        label="bench-diffusion",
        D=lambda x: 1.0 + np.asarray(x, dtype=float),
        D_x=_const_real(1.0),
        r=_const_real(0.0),
        f=f,
        bc_left=BoundaryCondition("left", "dirichlet", 0.0),
        bc_right=BoundaryCondition("right", "neumann", _TWO_PI),
        exact_u=u,
        exact_ux=ux,
        exact_uxx=uxx,
    )


def _bench_helmholtz() -> ProblemSpec:
    # constant fixed by u(0) = 1 and u_x(1) = 0
    a = 1.0 / ((1.0 - 1.0j) * np.exp(1.0 + 2.0j) + 1.0)
    lam = 1.0 + 1.0j

    def u(x):
        x = np.asarray(x)
        return a * np.exp(lam * x) + (1.0 - a) * np.exp(-1.0j * x)

    def ux(x):
        x = np.asarray(x)
        return a * lam * np.exp(lam * x) - 1.0j * (1.0 - a) * np.exp(-1.0j * x)

    def uxx(x):
        x = np.asarray(x)
        return a * lam**2 * np.exp(lam * x) - (1.0 - a) * np.exp(-1.0j * x)

    return ProblemSpec(
        label="bench-helmholtz",
        D=lambda x: (1.0 + 1.0j) * np.exp(-np.asarray(x, dtype=float)),
        D_x=lambda x: -(1.0 + 1.0j) * np.exp(-np.asarray(x, dtype=float)),
        r=lambda x: 2.0 * np.exp(-np.asarray(x, dtype=float)).astype(complex),
        f=_const_complex(0.0),
        bc_left=BoundaryCondition("left", "dirichlet", 1.0 + 0.0j),
        bc_right=BoundaryCondition("right", "neumann", 0.0 + 0.0j),
        complex_valued=True,
        exact_u=u,
        exact_ux=ux,
        exact_uxx=uxx,
    )


def _case(index: int, c: float) -> ProblemSpec:
    """Poisson-type family (D = 1, r = 0) with a tunable magnitude coefficient."""
    if not 0 < c < np.inf:
        raise ValueError(f"case{index} coefficient must be positive and finite, got {c}")
    w = _TWO_PI * c
    if index == 1:
        u = lambda x: np.sin(w * np.asarray(x)) / w**2
        ux = lambda x: np.cos(w * np.asarray(x)) / w
        uxx = lambda x: -np.sin(w * np.asarray(x))
        g0, g1 = 0.0, float(np.sin(w) / w**2)
    elif index == 2:
        e = lambda x: np.exp(-c * (np.asarray(x) - 0.5) ** 2)
        u = e
        ux = lambda x: -2.0 * c * (np.asarray(x) - 0.5) * e(x)
        uxx = lambda x: (4.0 * c**2 * (np.asarray(x) - 0.5) ** 2 - 2.0 * c) * e(x)
        g0 = g1 = float(np.exp(-c / 4.0))
    elif index == 3:
        u = lambda x: np.sin(w * np.asarray(x)) / w**2 - np.asarray(x) ** 2 / 2.0
        ux = lambda x: np.cos(w * np.asarray(x)) / w - np.asarray(x)
        uxx = lambda x: -np.sin(w * np.asarray(x)) - 1.0
        g0, g1 = 0.0, float(np.sin(w) / w**2 - 0.5)
    elif index == 4:
        u = lambda x: np.sin(w * np.asarray(x)) / w
        ux = lambda x: np.cos(w * np.asarray(x))
        uxx = lambda x: -w * np.sin(w * np.asarray(x))
        g0, g1 = 0.0, float(np.sin(w) / w)
    elif index == 5:
        u = lambda x: np.asarray(x, dtype=float) / c
        ux = _const_real(1.0 / c)
        uxx = _const_real(0.0)
        g0, g1 = 0.0, 1.0 / c
    else:
        raise ValueError(f"unknown case index {index}")
    return ProblemSpec(
        label=f"case{index}(c={c:g})",
        D=_const_real(1.0),
        D_x=_const_real(0.0),
        r=_const_real(0.0),
        f=uxx,
        bc_left=BoundaryCondition("left", "dirichlet", g0),
        bc_right=BoundaryCondition("right", "dirichlet", g1),
        exact_u=u,
        exact_ux=ux,
        exact_uxx=uxx,
    )


def _validation_helmholtz() -> ProblemSpec:
    # ((0.01 + x)(1.01 - x) u_x)_x - 0.01i u = 1, u(0) = 0, u_x(1) = 0
    def D(x):
        x = np.asarray(x, dtype=float)
        return ((0.01 + x) * (1.01 - x)).astype(complex)

    def D_x(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - 2.0 * x).astype(complex)

    return ProblemSpec(
        label="validation-helmholtz",
        D=D,
        D_x=D_x,
        r=_const_complex(-0.01j),
        f=_const_complex(1.0),
        bc_left=BoundaryCondition("left", "dirichlet", 0.0 + 0.0j),
        bc_right=BoundaryCondition("right", "neumann", 0.0 + 0.0j),
        complex_valued=True,
    )


_BENCH = {
    "bench-poisson": _bench_poisson,
    "bench-diffusion": _bench_diffusion,
    "bench-helmholtz": _bench_helmholtz,
    "validation-helmholtz": _validation_helmholtz,
}

CATALOG_NAMES = tuple(
    list(_BENCH)[:3] + [f"case{i}" for i in range(1, 6)] + ["validation-helmholtz"]
)


def catalog(name: str, coefficient: float | None = None) -> ProblemSpec:
    """Look up a problem by name; case1..case5 additionally need `coefficient`."""
    if name in _BENCH:
        if coefficient is not None:
            raise ValueError(f"{name} takes no coefficient")
        spec = _BENCH[name]()
    elif name.startswith("case") and name[4:].isdigit() and 1 <= int(name[4:]) <= 5:
        if coefficient is None:
            raise ValueError(f"{name} requires a coefficient value")
        spec = _case(int(name[4:]), float(coefficient))
    else:
        raise ValueError(f"unknown problem {name!r}; available: {', '.join(CATALOG_NAMES)}")
    _check_consistency(spec)
    return spec


def _check_consistency(spec: ProblemSpec, n_points: int = 20) -> None:
    """Sanity checks run at load: exact derivatives satisfy the ODE, BCs match."""
    if not spec.has_exact:
        return
    rng = np.random.default_rng(1234)
    x = rng.uniform(0.02, 0.98, n_points)
    residual = (
        spec.D_x(x) * spec.exact_ux(x)
        + spec.D(x) * spec.exact_uxx(x)
        + spec.r(x) * spec.exact_u(x)
        - spec.f(x)
    )
    scale = max(np.max(np.abs(spec.f(x))), np.max(np.abs(spec.exact_u(x))), 1e-30)
    if not np.max(np.abs(residual)) <= 1e-8 * scale:  # a NaN fails too
        raise AssertionError(f"{spec.label}: exact solution does not satisfy the equation")
    for bc in (spec.bc_left, spec.bc_right):
        val = spec.exact_u(bc.location) if bc.kind == "dirichlet" else spec.exact_ux(bc.location)
        if not abs(complex(val) - complex(bc.value)) <= 1e-12 * max(1.0, abs(complex(bc.value))):
            raise AssertionError(f"{spec.label}: boundary data inconsistent on {bc.side} side")
