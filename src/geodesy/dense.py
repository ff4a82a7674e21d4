"""Dense-output curves: piecewise Hermite interpolants over solver nodes.

Values may be real or complex. Each node carries the value and one or two
derivatives; the interpolant matches all supplied orders at the nodes and is
C^(orders-1) in between, so querying a second derivative between nodes is an
honest interpolation rather than a re-statement of the ODE being checked.

Each interval carries a polynomial in Bernstein form (de Boor, *A Practical
Guide to Splines*). Its coefficients come from the recursion of
``scipy.interpolate.BPoly.from_derivatives``: the q-th derivative at the left
end fixes c_q as y_q / poch(n-q, q) * h**q minus a binomial sum over c_0 ..
c_(q-1), and the right end is walked the same way from c_(n-1) down. The
recursion runs once over arrays holding every interval instead of once per
interval, with the same operations in the same order, so the coefficients
equal scipy's bit for bit. The powers h**q are the one exception to "the same
operations on arrays": numpy's array power differs from the scalar C ``pow``
in the last bit for some inputs (about 5% of them for q = 3), so they are
taken per interval with scalar ``pow``. Complex data stays complex
throughout: numpy divides complex numbers by a reciprocal, so splitting real
and imaginary parts would change the rounding.

A curve may also be joined from contiguous pieces whose derivatives need not
agree at the joins: along a polyline path the parametrization velocity jumps
at each vertex, and one Hermite fit across it would smear the kink. The
pieces' coefficient columns and breakpoints then form one BPoly, whose
intervals carry unrelated coefficients anyway; a query at a join lands in the
piece that starts there, by the interval search of the BPoly itself.
"""

from __future__ import annotations

import numpy as np

from .errors import OutsideSupportError


class CurveDense:
    """Hermite dense output over increasing nodes."""

    def __init__(self, nodes, derivatives):
        """``derivatives[k][i]`` is the k-th derivative at ``nodes[i]``."""
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need at least two nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        self._set(nodes, len(derivatives), _bernstein_coefficients(nodes, derivatives))

    def _set(self, nodes: np.ndarray, orders: int, coefficients: np.ndarray) -> None:
        from scipy.interpolate import BPoly  # imported here: importing geodesy loads no scipy
        self.nodes = nodes
        self.orders = orders
        self._poly = BPoly(coefficients, nodes)
        self._d1_poly = self._poly.derivative()
        self._d2_poly = self._d1_poly.derivative()

    @classmethod
    def joined(cls, pieces: list["CurveDense"]) -> "CurveDense":
        """One curve from pieces that each start where the one before ends.

        Derivatives may jump at a join; there the curve answers with the
        piece that starts at it, and everywhere it equals its pieces bit for
        bit.
        """
        if not pieces:
            raise ValueError("need at least one piece")
        for a, b in zip(pieces, pieces[1:]):
            if a.nodes[-1] != b.nodes[0]:
                raise ValueError("pieces must be contiguous")
        curve = cls.__new__(cls)
        nodes = np.concatenate([p.nodes[:-1] for p in pieces] + [pieces[-1].nodes[-1:]])
        curve._set(nodes, pieces[0].orders, np.concatenate([p._poly.c for p in pieces], axis=1))
        return curve

    @property
    def support(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    def _check(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.support
        slack = 1e-12 * (1 + (hi - lo))
        if np.any(t < lo - slack) or np.any(t > hi + slack):
            raise OutsideSupportError(f"query {t} outside support [{lo}, {hi}]")
        return np.clip(t, lo, hi)

    def value(self, t):
        return self._poly(self._check(t))

    def d1(self, t):
        return self._d1_poly(self._check(t))

    def d2(self, t):
        return self._d2_poly(self._check(t))

    __call__ = value

    def refined(self, per_interval: int) -> np.ndarray:
        """Node grid with ``per_interval`` extra points inside every interval.

        The points of [a, b] are a + k (b - a)/(per_interval + 1), which is
        what ``np.linspace(a, b, per_interval + 2)`` computes before its end.
        In an interval a few ulps wide (a rounding-remainder last step) they
        round onto each other or onto b; those collapsed points are dropped,
        so the grid stays strictly increasing.
        """
        a, b = self.nodes[:-1, None], self.nodes[1:, None]
        inner = np.arange(per_interval + 1) * ((b - a) / (per_interval + 1)) + a
        grid = np.concatenate([inner.ravel(), self.nodes[-1:]])
        return grid[np.append(grid[:-1] < grid[1:], True)]


def _bernstein_coefficients(nodes: np.ndarray, derivatives) -> np.ndarray:
    """Bernstein coefficients, shape (2 * orders, intervals), of the Hermite
    interpolant of ``derivatives[k][i]`` (the k-th derivative at ``nodes[i]``).
    """
    from scipy.special import comb, poch

    data = [np.asarray(d) for d in derivatives]
    dtype = complex if any(np.iscomplexobj(d) for d in data) else float
    ya = [d[:-1].astype(dtype) for d in data]
    yb = [d[1:].astype(dtype) for d in data]
    na = len(data)
    n = 2 * na
    widths = np.diff(nodes).tolist()
    # scalar pow, not numpy's array power: see the module docstring
    powers = [np.array([w ** q for w in widths]) for q in range(na)]
    c = np.empty((n, len(widths)), dtype=dtype)
    # walk left-to-right
    for q in range(na):
        c[q] = ya[q] / poch(n - q, q) * powers[q]
        for j in range(q):
            c[q] -= (-1) ** (j + q) * comb(q, j) * c[j]
    # now walk right-to-left
    for q in range(na):
        c[-q - 1] = yb[q] / poch(n - q, q) * (-1) ** q * powers[q]
        for j in range(q):
            c[-q - 1] -= (-1) ** (j + 1) * comb(q, j + 1) * c[-q + j]
    return c
