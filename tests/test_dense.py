"""Hermite dense output against scipy's own per-interval construction."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BPoly

from geodesy.dense import CurveDense, SegmentedCurve


def _random_nodes(rng, count):
    """Increasing nodes with log-uniform widths from 1e-12 to 1 (down to
    about 1e-14 of the span, still far above the spacing of doubles there)."""
    widths = 10.0 ** rng.uniform(-12, 0, count - 1)
    return rng.uniform(-3, 3) + np.concatenate([[0.0], np.cumsum(widths)])


def _random_derivatives(rng, count, orders, is_complex):
    """Derivative k scaled by up to 1e3**k, so that on the wider intervals
    the h**k terms carry the coefficients instead of vanishing in their sums."""
    data = []
    for k in range(orders):
        scale = 10.0 ** (rng.uniform(-3, 3) + k * rng.uniform(0, 3))
        d = scale * rng.standard_normal(count)
        if is_complex:
            d = d + 1j * scale * rng.standard_normal(count)
        data.append(d)
    return data


@settings(max_examples=60, deadline=None)
@given(orders=st.integers(2, 4), count=st.integers(2, 400), is_complex=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_coefficients_equal_scipys_from_derivatives(orders, count, is_complex, seed):
    rng = np.random.default_rng(seed)
    nodes = _random_nodes(rng, count)
    assert np.all(np.diff(nodes) > 0)
    data = _random_derivatives(rng, count, orders, is_complex)
    ours = CurveDense(nodes, data)._poly.c
    ref = BPoly.from_derivatives(nodes, [[d[i] for d in data] for i in range(count)]).c
    assert ours.dtype == ref.dtype
    assert np.array_equal(ours, ref)


def _linspace_grid(nodes, per_interval):
    """The per-interval np.linspace concatenation the array grid replaces."""
    pieces = [np.linspace(nodes[i], nodes[i + 1], per_interval + 2)[:-1]
              for i in range(len(nodes) - 1)]
    return np.concatenate(pieces + [nodes[-1:]])


def test_refined_equals_the_per_interval_linspace_grid():
    rng = np.random.default_rng(3)
    nodes = _random_nodes(rng, 300)
    curve = CurveDense(nodes, _random_derivatives(rng, 300, 2, False))
    cut = [0, 120, 210, 299]
    segmented = SegmentedCurve([
        CurveDense(nodes[a:b + 1], _random_derivatives(rng, b + 1 - a, 3, True))
        for a, b in zip(cut, cut[1:])])
    for k in (1, 2, 3):
        assert np.array_equal(curve.refined(k), _linspace_grid(nodes, k))
        expected = np.concatenate(
            [_linspace_grid(p.nodes, k)[:-1] for p in segmented.pieces[:-1]]
            + [_linspace_grid(segmented.pieces[-1].nodes, k)])
        assert np.array_equal(segmented.refined(k), expected)
