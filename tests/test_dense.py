"""Hermite dense output against scipy's own per-interval construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BPoly

from geodesy.dense import CurveDense


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
    pieces = [CurveDense(nodes[a:b + 1], _random_derivatives(rng, b + 1 - a, 3, True))
              for a, b in zip(cut, cut[1:])]
    joined = CurveDense.joined(pieces)
    for k in (1, 2, 3):
        assert np.array_equal(curve.refined(k), _linspace_grid(nodes, k))
        expected = np.concatenate(
            [_linspace_grid(p.nodes, k)[:-1] for p in pieces[:-1]]
            + [_linspace_grid(pieces[-1].nodes, k)])
        assert np.array_equal(joined.refined(k), expected)


def _pieces(rng, nodes, cut, orders, is_complex):
    """Pieces over ``nodes`` split at the indices ``cut``; each starts at the
    value the one before ends with, and its derivatives jump there."""
    pieces = []
    for a, b in zip(cut, cut[1:]):
        data = _random_derivatives(rng, b + 1 - a, orders, is_complex)
        if pieces:
            data[0][0] = pieces[-1].value(nodes[a])
        pieces.append(CurveDense(nodes[a:b + 1], data))
    return pieces


@pytest.mark.parametrize("is_complex", [False, True])
def test_joined_curve_answers_with_the_piece_that_starts_at_or_contains_a_point(is_complex):
    rng = np.random.default_rng(7)
    nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 199))])
    cut = [0, 40, 41, 130, 199]
    pieces = _pieces(rng, nodes, cut, 3, is_complex)
    curve = CurveDense.joined(pieces)
    assert np.array_equal(curve.nodes, nodes)
    assert curve.support == (nodes[0], nodes[-1])
    starts = nodes[cut[:-1]]
    ts = np.concatenate([nodes[cut], rng.uniform(nodes[0], nodes[-1], 500)])
    owner = np.searchsorted(starts, ts, side="right") - 1
    for attr in ("value", "d1", "d2"):
        together = getattr(curve, attr)(ts)
        assert together.dtype == (complex if is_complex else float)
        for k, piece in enumerate(pieces):
            mine = owner == k
            assert np.array_equal(together[mine], getattr(piece, attr)(ts[mine]))
        for t, k in zip(ts[:len(cut)], owner):
            assert np.array_equal(getattr(curve, attr)(t), getattr(pieces[k], attr)(t))
    for k, join in enumerate(starts[1:]):
        before, after = pieces[k], pieces[k + 1]
        assert np.isclose(before.value(join), curve.value(join), rtol=1e-12)
        # the derivative jump at the join survives on both sides of it
        assert before.d1(join) != after.d1(join)
        assert curve.d1(join) == after.d1(join)
        inside = np.nextafter(join, -np.inf)
        assert curve.d1(inside) == before.d1(inside)


def test_joined_rejects_pieces_that_do_not_meet():
    rng = np.random.default_rng(5)
    nodes = np.linspace(0.0, 1.0, 21)

    def piece(a, b):
        return CurveDense(nodes[a:b + 1], _random_derivatives(rng, b + 1 - a, 2, False))

    CurveDense.joined([piece(0, 10), piece(10, 20)])
    for pieces in ([piece(0, 9), piece(10, 20)],   # a gap
                   [piece(0, 11), piece(10, 20)],  # an overlap
                   [piece(10, 20), piece(0, 10)],  # out of order
                   []):
        with pytest.raises(ValueError):
            CurveDense.joined(pieces)
