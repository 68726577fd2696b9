"""Double-precision quaternion arithmetic.

Values are plain ``Quaternion`` tuples ``(r, m, n, p)`` holding the
coefficients of 1, i, j, k.  All operations are pure functions, so they are
safe to call from any number of concurrent workers.  Overflow is not trapped:
arithmetic on huge inputs yields inf/nan components and the caller decides
what that means (the orbit classifiers treat it as escape).

The module is kept whole, though the pipeline calls only a few of its
names: it is the algebra that acceptance criterion 1 checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Near-zero guard for inverse(); denormal-adjacent so that genuine poles are
# reported instead of silently producing inf.
EPS_DIV = 1e-300


class DivisionByNearZero(ArithmeticError):
    """Raised by inverse() when the squared norm is at or below EPS_DIV."""


class Quaternion(NamedTuple):
    r: float
    m: float
    n: float
    p: float

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return Quaternion(-self.r, -self.m, -self.n, -self.p)


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)


def mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b (non-commutative)."""
    ar, am, an, ap = a
    br, bm, bn, bp = b
    return Quaternion(
        ar * br - am * bm - an * bn - ap * bp,
        ar * bm + am * br + an * bp - ap * bn,
        ar * bn - am * bp + an * br + ap * bm,
        ar * bp + am * bn - an * bm + ap * br,
    )


def add(a: Quaternion, b: Quaternion) -> Quaternion:
    return Quaternion(a.r + b.r, a.m + b.m, a.n + b.n, a.p + b.p)


def sub(a: Quaternion, b: Quaternion) -> Quaternion:
    return Quaternion(a.r - b.r, a.m - b.m, a.n - b.n, a.p - b.p)


def scale(a: Quaternion, s: float) -> Quaternion:
    """Componentwise scaling by a real factor."""
    return Quaternion(a.r * s, a.m * s, a.n * s, a.p * s)


def conj(a: Quaternion) -> Quaternion:
    return Quaternion(a.r, -a.m, -a.n, -a.p)


def norm_sq(a: Quaternion) -> float:
    return a.r * a.r + a.m * a.m + a.n * a.n + a.p * a.p


def norm(a: Quaternion) -> float:
    return math.sqrt(a.r * a.r + a.m * a.m + a.n * a.n + a.p * a.p)


def inverse(a: Quaternion) -> Quaternion:
    """Multiplicative inverse conj(a)/|a|^2.

    Raises DivisionByNearZero when |a|^2 <= EPS_DIV, which during iteration
    signals that the orbit hit a pole of the map.
    """
    ns = norm_sq(a)
    if not ns > EPS_DIV:
        raise DivisionByNearZero(f"norm_sq={ns!r}")
    return Quaternion(a.r / ns, -a.m / ns, -a.n / ns, -a.p / ns)


def distance(a: Quaternion, b: Quaternion) -> float:
    """Euclidean distance |a - b| between two quaternions."""
    dr = a.r - b.r
    dm = a.m - b.m
    dn = a.n - b.n
    dp = a.p - b.p
    return math.sqrt(dr * dr + dm * dm + dn * dn + dp * dp)


def is_finite(a: Quaternion) -> bool:
    return (
        math.isfinite(a.r)
        and math.isfinite(a.m)
        and math.isfinite(a.n)
        and math.isfinite(a.p)
    )
