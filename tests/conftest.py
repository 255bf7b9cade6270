from __future__ import annotations

import numpy as np
import pytest

from curvekernel import bergman, cli, periods, weierstrass

# fixture curves used throughout: the square-lattice cubic and a genus-2 quintic
G1_COEFFS = [0.0, -1.0, 0.0, 1.0]  # x^3 - x
G2_COEFFS = [0.0, 24.0, -50.0, 35.0, -10.0, 1.0]  # x(x-1)(x-2)(x-3)(x-4)
G3_COEFFS = None  # built from roots below


def _coeffs_from_roots(roots):
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0]))
    return list(c)


@pytest.fixture(scope="session")
def g1_curve():
    return periods.build_curve(G1_COEFFS)


@pytest.fixture(scope="session")
def g1_pd(g1_curve):
    return periods.compute_periods(g1_curve)


@pytest.fixture(scope="session")
def g2_curve():
    return periods.build_curve(G2_COEFFS)


@pytest.fixture(scope="session")
def g2_pd(g2_curve):
    return periods.compute_periods(g2_curve)


@pytest.fixture(scope="session")
def g3_pd():
    curve = periods.build_curve(_coeffs_from_roots([-3, -2, -1, 0, 1, 2, 3]))
    return periods.compute_periods(curve)


@pytest.fixture(scope="session")
def g1_ctx(g1_pd):
    return bergman.context_from_periods(g1_pd)


@pytest.fixture(scope="session")
def g2_ctx(g2_pd):
    return bergman.context_from_periods(g2_pd)


@pytest.fixture(scope="session")
def g3_ctx(g3_pd):
    return bergman.context_from_periods(g3_pd)


@pytest.fixture(scope="session")
def square_lattice():
    return weierstrass.build_lattice(1.0, 1j)


@pytest.fixture(scope="session")
def rect_lattice():
    return weierstrass.build_lattice(1.0, 2j)


@pytest.fixture(scope="session")
def generic_lattice():
    return weierstrass.build_lattice(1.0, 0.3 + 1.1j)


def basis(ctx, u):
    """Values e(u) of the context's a-normalized basis at the points u = (x, sheet, lam), shape (..., g)."""
    return periods.normalized_differential_eval(ctx.pd, *u)


def class_value(coeffs, e):
    """Value of the class with normalized-basis coefficients ``coeffs`` where the basis takes values e."""
    return np.sum(np.asarray(coeffs, dtype=complex) * e, -1)


def random_siegel_point(g, rng):
    """Random symmetric Z with positive definite imaginary part."""
    re = rng.standard_normal((g, g))
    re = re + re.T
    m = rng.standard_normal((g, g))
    return re + 1j * (m @ m.T + g * np.eye(g))


def random_curve_tangent(curve, rng):
    """(x, sheet, lam) of one tangent drawn as ``verify theorem-a`` draws them, as Python scalars."""
    x, sheet, lam = cli._random_tangents(curve, rng, 1)
    return complex(x[0]), int(sheet[0]), complex(lam[0])


def random_tangent_batch(curve, rng, count):
    """``count`` tangents from ``random_curve_tangent``, as a list and as one (x, sheet, lam) of arrays."""
    scalars = [random_curve_tangent(curve, rng) for _ in range(count)]
    return scalars, tuple(np.array(a) for a in zip(*scalars))
