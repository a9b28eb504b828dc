"""Numerical quadrature on the reference triangle and on edges.

The triangle rule is the symmetric degree-6 Gauss rule, given in
barycentric coordinates with weights normalized to sum to 1 (multiply by
the physical cell area). Edge rules are Gauss-Legendre on [0, 1] with
weights summing to 1 (multiply by the physical edge length).
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


def _orbit3(a):
    # three permutations of (a, b, b), b = (1 - a) / 2
    b = (1.0 - a) / 2.0
    return np.array([[a, b, b], [b, a, b], [b, b, a]])


def _orbit6(a, b):
    # six permutations of (a, b, c), c = 1 - a - b
    c = 1.0 - a - b
    return np.array(
        [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]]
    )


_TRI_DEGREE = 6
# barycentric points and weights summing to 1 of the 12-point rule
_TRI_POINTS = np.vstack(
    [
        _orbit3(0.873821971016996),
        _orbit3(0.501426509658179),
        _orbit6(0.636502499121399, 0.310352451033785),
    ]
)
_TRI_WEIGHTS = np.concatenate(
    [
        np.full(3, 0.050844906370207),
        np.full(3, 0.116786275726379),
        np.full(6, 0.082851075618374),
    ]
)


class TriangleRule:
    """Quadrature rule on the reference triangle (0,0)-(1,0)-(0,1).

    Attributes
    ----------
    points : (nq, 2) reference coordinates
    weights : (nq,) weights summing to 1 (scale by cell area)
    """

    def __init__(self, points, weights):
        self.points = np.ascontiguousarray(points, dtype=float)
        self.weights = np.ascontiguousarray(weights, dtype=float)

    def __len__(self):
        return len(self.weights)


def triangle_rule(degree):
    """Symmetric rule exact for polynomials up to `degree`, at most 6."""
    if degree > _TRI_DEGREE:
        raise ValueError(f"no tabulated symmetric triangle rule of degree >= {degree}")
    return TriangleRule(_TRI_POINTS[:, 1:], _TRI_WEIGHTS)


class EdgeRule:
    """Gauss-Legendre rule on [0, 1]; weights sum to 1 (scale by length)."""

    def __init__(self, n):
        x, w = leggauss(n)
        self.points = 0.5 * (x + 1.0)
        self.weights = 0.5 * w

    def __len__(self):
        return len(self.weights)


def edge_rule(degree):
    """Gauss rule on [0, 1] exact for polynomials up to `degree`."""
    n = degree // 2 + 1
    return EdgeRule(n)
