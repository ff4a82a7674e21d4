"""Dense-output curves: piecewise Hermite interpolants over solver nodes.

Values may be real or complex. Each node carries the value and one or two
derivatives; the interpolant matches all supplied orders at the nodes and is
C^(orders-1) in between, so querying a second derivative between nodes is an
honest interpolation rather than a re-statement of the ODE being checked.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import BPoly

from .errors import OutsideSupportError


class CurveDense:
    """Hermite dense output over increasing nodes."""

    def __init__(self, nodes, derivatives):
        """``derivatives[k][i]`` is the k-th derivative at ``nodes[i]``."""
        self.nodes = np.asarray(nodes, dtype=float)
        if self.nodes.ndim != 1 or len(self.nodes) < 2:
            raise ValueError("need at least two nodes")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        self.orders = len(derivatives)
        data = [np.asarray(d) for d in derivatives]
        yi = [[data[k][i] for k in range(self.orders)] for i in range(len(self.nodes))]
        self._poly = BPoly.from_derivatives(self.nodes, yi)
        self._d1_poly = self._poly.derivative()
        self._d2_poly = self._d1_poly.derivative()

    @property
    def support(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    def _check(self, t, slack: float = 1e-12):
        t = np.asarray(t, dtype=float)
        lo, hi = self.support
        span = hi - lo
        if np.any(t < lo - slack * (1 + span)) or np.any(t > hi + slack * (1 + span)):
            raise OutsideSupportError(f"query {t} outside support [{lo}, {hi}]")
        return np.clip(t, lo, hi)

    def value(self, t):
        return self._poly(self._check(t))

    def d1(self, t):
        return self._d1_poly(self._check(t))

    def d2(self, t):
        return self._d2_poly(self._check(t))

    __call__ = value

    def refined(self, per_interval: int = 4) -> np.ndarray:
        """Node grid with ``per_interval`` extra points inside every interval."""
        pieces = [
            np.linspace(self.nodes[i], self.nodes[i + 1], per_interval + 2)[:-1]
            for i in range(len(self.nodes) - 1)
        ]
        return np.concatenate(pieces + [self.nodes[-1:]])


class SegmentedCurve:
    """Contiguous CurveDense pieces with possible derivative jumps at joins.

    Needed along polyline paths, where the parametrization velocity is
    discontinuous at vertices: one global Hermite fit would smear the kink.
    """

    def __init__(self, pieces: list[CurveDense]):
        if not pieces:
            raise ValueError("need at least one piece")
        for a, b in zip(pieces, pieces[1:]):
            if abs(a.support[1] - b.support[0]) > 1e-12:
                raise ValueError("pieces must be contiguous")
        self.pieces = pieces
        self._breaks = np.array([p.support[0] for p in pieces] + [pieces[-1].support[1]])

    @property
    def support(self) -> tuple[float, float]:
        return float(self._breaks[0]), float(self._breaks[-1])

    @property
    def nodes(self) -> np.ndarray:
        parts = [p.nodes[:-1] for p in self.pieces[:-1]] + [self.pieces[-1].nodes]
        return np.concatenate(parts)

    def _piece_index(self, t):
        # a join belongs to the piece that starts there
        return np.searchsorted(self._breaks[1:-1], t, side="right")

    def _eval(self, t, attr: str):
        if np.ndim(t) == 0:
            return getattr(self.pieces[self._piece_index(float(t))], attr)(t)
        t = np.asarray(t, dtype=float)
        idx = self._piece_index(t)
        parts = {k: getattr(self.pieces[k], attr)(t[idx == k]) for k in np.unique(idx)}
        out = np.empty(t.shape, dtype=np.result_type(float, *parts.values()))
        for k, vals in parts.items():
            out[idx == k] = vals
        return out

    def value(self, t):
        return self._eval(t, "value")

    def d1(self, t):
        return self._eval(t, "d1")

    def d2(self, t):
        return self._eval(t, "d2")

    __call__ = value

    def refined(self, per_interval: int = 4) -> np.ndarray:
        parts = [p.refined(per_interval)[:-1] for p in self.pieces[:-1]]
        return np.concatenate(parts + [self.pieces[-1].refined(per_interval)])

