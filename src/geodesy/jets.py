"""Order-2 multivariate jets for differentiating metric components.

A :class:`Taylor2` carries a value together with its gradient and Hessian
with respect to n chart coordinates, at every point of an array of points:
the parts have shapes ``value (...)``, ``grad (..., n)`` and
``hess (..., n, n)``, where ``...`` are the leading point axes (none for a
single point). Every operation broadcasts over those axes, so one chain of
array operations differentiates the metric at all sample points at once.
Rational arithmetic on these objects is exact to roundoff, which is what lets
curvature checks meet 1e-6 tolerances without any finite-difference step
tuning. Entries may be complex while the coordinates stay real (Kähler-Norden
charts) or complex coordinates may carry holomorphic derivatives (complex
Riemannian charts); the chain and product rules below are identical in all
cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Jet2


def _col(x):
    """``x`` with one trailing axis, to scale a gradient (..., n)."""
    return np.asarray(x)[..., None]


def _mat(x):
    """``x`` with two trailing axes, to scale a Hessian (..., n, n)."""
    return np.asarray(x)[..., None, None]


def _outer(a, b):
    """a_i b_j over the last axis of each, per point."""
    return a[..., :, None] * b[..., None, :]


def _transpose(m):
    return np.swapaxes(m, -1, -2)


@dataclass(frozen=True)
class Taylor2:
    value: np.ndarray  # shape (...)
    grad: np.ndarray  # shape (..., n)
    hess: np.ndarray  # shape (..., n, n), symmetric

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    @staticmethod
    def constant(c, n: int, dtype=np.float64) -> "Taylor2":
        return Taylor2(c, np.zeros(n, dtype), np.zeros((n, n), dtype))

    @staticmethod
    def coordinate(value, k: int, n: int, dtype=np.float64) -> "Taylor2":
        """The k-th of n coordinates, at the points ``value`` (shape (...))."""
        value = np.asarray(value)
        grad = np.zeros(value.shape + (n,), dtype)
        grad[..., k] = 1
        return Taylor2(value, grad, np.zeros(value.shape + (n, n), dtype))

    def _coerce(self, other) -> "Taylor2":
        if isinstance(other, Taylor2):
            return other
        return Taylor2.constant(other, self.n, self.grad.dtype)

    def __add__(self, other) -> "Taylor2":
        o = self._coerce(other)
        return Taylor2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other) -> "Taylor2":
        o = self._coerce(other)
        return Taylor2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other) -> "Taylor2":
        return self._coerce(other) - self

    def __neg__(self) -> "Taylor2":
        return Taylor2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other) -> "Taylor2":
        o = self._coerce(other)
        outer = _outer(self.grad, o.grad)
        return Taylor2(
            self.value * o.value,
            _col(self.value) * o.grad + _col(o.value) * self.grad,
            _mat(self.value) * o.hess + _mat(o.value) * self.hess + outer + _transpose(outer),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Taylor2":
        o = self._coerce(other)
        v = self.value / o.value
        grad = (self.grad - _col(v) * o.grad) / _col(o.value)
        cross = _outer(grad, o.grad)
        hess = (self.hess - _mat(v) * o.hess - cross - _transpose(cross)) / _mat(o.value)
        return Taylor2(v, grad, hess)

    def __rtruediv__(self, other) -> "Taylor2":
        return self._coerce(other) / self

    def real(self) -> "Taylor2":
        """Componentwise real part; valid when the coordinates are real."""
        return Taylor2(np.real(self.value), self.grad.real, self.hess.real)

    def imag(self) -> "Taylor2":
        return Taylor2(np.imag(self.value), self.grad.imag, self.hess.imag)


def compose_jet(outer: Jet2, inner: Taylor2) -> Taylor2:
    """Chain rule for f(g(x)): ``outer`` is the scalar jet of f at g's value
    (its parts of the points' shape (...))."""
    return Taylor2(
        outer.value,
        _col(outer.d1) * inner.grad,
        _mat(outer.d1) * inner.hess + _mat(outer.d2) * _outer(inner.grad, inner.grad),
    )
