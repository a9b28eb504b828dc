"""Numerical quadrature on reference simplices and edges.

Triangle rules are symmetric Gauss rules given in barycentric coordinates
with weights normalized to sum to 1 (multiply by the physical cell area).
Edge rules are Gauss-Legendre on [0, 1] with weights summing to 1
(multiply by the physical edge length).
"""

import numpy as np
from numpy.polynomial.legendre import leggauss


def _orbit1():
    # centroid orbit
    return np.array([[1 / 3, 1 / 3, 1 / 3]])


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


# degree -> (barycentric points, weights summing to 1)
_TRI_RULES = {}

_TRI_RULES[1] = (_orbit1(), np.array([1.0]))

_TRI_RULES[2] = (
    _orbit3(2 / 3),
    np.full(3, 1 / 3),
)

_TRI_RULES[4] = (
    np.vstack([_orbit3(0.108103018168070), _orbit3(0.816847572980459)]),
    np.concatenate(
        [np.full(3, 0.223381589678011), np.full(3, 0.109951743655322)]
    ),
)

_TRI_RULES[6] = (
    np.vstack(
        [
            _orbit3(0.873821971016996),
            _orbit3(0.501426509658179),
            _orbit6(0.636502499121399, 0.310352451033785),
        ]
    ),
    np.concatenate(
        [
            np.full(3, 0.050844906370207),
            np.full(3, 0.116786275726379),
            np.full(6, 0.082851075618374),
        ]
    ),
)


class TriangleRule:
    """Quadrature rule on the reference triangle (0,0)-(1,0)-(0,1).

    Attributes
    ----------
    points : (nq, 2) reference coordinates
    weights : (nq,) weights summing to 1 (scale by cell area)
    degree : polynomial degree integrated exactly
    """

    def __init__(self, points, weights, degree):
        self.points = np.ascontiguousarray(points, dtype=float)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        self.degree = degree

    def __len__(self):
        return len(self.weights)


def triangle_rule(degree):
    """Symmetric rule exact for polynomials up to `degree` (2, 4 or 6)."""
    for d in sorted(_TRI_RULES):
        if d >= degree:
            bary, w = _TRI_RULES[d]
            return TriangleRule(bary[:, 1:], w, d)
    raise ValueError(f"no tabulated symmetric triangle rule of degree >= {degree}")


class EdgeRule:
    """Gauss-Legendre rule on [0, 1]; weights sum to 1 (scale by length)."""

    def __init__(self, n):
        x, w = leggauss(n)
        self.points = 0.5 * (x + 1.0)
        self.weights = 0.5 * w
        self.degree = 2 * n - 1

    def __len__(self):
        return len(self.weights)


def edge_rule(degree):
    """Gauss rule on [0, 1] exact for polynomials up to `degree`."""
    n = degree // 2 + 1
    return EdgeRule(n)
