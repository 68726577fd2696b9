"""Independent complex-plane cross-check for the quaternion classifiers.

Everything numeric in this module is written against a plain (re, im)
pair on purpose: the whole point is to validate the quaternion pipeline
against separately written arithmetic, so nothing here may call into
``qjulia.quat`` or reuse iteration loops from ``qjulia.dynamics``.  Only
the outcome/parameter record types are shared so results compare 1:1.

Formulas deliberately follow the same evaluation order as the scalar
quaternion path (Horner evaluation, division as multiply-by-inverse),
which makes the two implementations agree to the last bit on the
complex slice rather than merely to a tolerance.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from qjulia.dynamics import ClassifierMethod, ClassifierParams, OutcomeKind

EPS_DIV = 1e-300


class Pole2d(ArithmeticError):
    pass


class Complex(NamedTuple):
    re: float
    im: float


C_ZERO = Complex(0.0, 0.0)
C_ONE = Complex(1.0, 0.0)

ComplexLike = Union[float, int, complex, Complex]


def as_complex(v: ComplexLike) -> Complex:
    if isinstance(v, Complex):
        return v
    if isinstance(v, complex):
        return Complex(v.real, v.imag)
    return Complex(float(v), 0.0)


def c_dist(a: Complex, b: Complex) -> float:
    dr = a.re - b.re
    di = a.im - b.im
    return math.sqrt(dr * dr + di * di)


def c_finite(a: Complex) -> bool:
    return math.isfinite(a.re) and math.isfinite(a.im)


class CMap(NamedTuple):
    """Rational map as ascending-degree coefficient tuples."""

    numerator: tuple[Complex, ...]
    denominator: tuple[Complex, ...]


def cmap(num: Sequence[ComplexLike], den: Sequence[ComplexLike] = (1.0,)) -> CMap:
    return CMap(
        tuple(as_complex(c) for c in num), tuple(as_complex(c) for c in den)
    )


def _eval_cpoly(coeffs: tuple[Complex, ...], x: float, y: float) -> tuple[float, float]:
    ar, ai = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        c = coeffs[k]
        ar, ai = ar * x - ai * y + c.re, ar * y + ai * x + c.im
    return ar, ai


def _eval_cmap(F: CMap, x: float, y: float) -> tuple[float, float]:
    nr, ni = _eval_cpoly(F.numerator, x, y)
    dr, di = _eval_cpoly(F.denominator, x, y)
    ns = dr * dr + di * di
    if not ns > EPS_DIV:
        raise Pole2d(f"norm_sq={ns!r}")
    ir = dr / ns
    ii = -di / ns
    return nr * ir - ni * ii, nr * ii + ni * ir


def eval_cpoly(coeffs: tuple[Complex, ...], z: Complex) -> Complex:
    return Complex(*_eval_cpoly(coeffs, *z))


def eval_cmap(F: CMap, z: Complex) -> Complex:
    return Complex(*_eval_cmap(F, *z))


class Outcome2d(NamedTuple):
    kind: OutcomeKind
    steps: int
    last: Optional[Complex] = None


def classify2d(F: CMap, seed: Complex, params: ClassifierParams) -> Outcome2d:
    """Complex twin of dynamics.classify; same decision rules throughout."""
    radius = params.radius
    if params.method is ClassifierMethod.ESCAPE_TIME:
        x, y = seed
        first_out = 0
        for n in range(1, params.max_iter + 1):
            try:
                x, y = _eval_cmap(F, x, y)
            except Pole2d:
                return Outcome2d(OutcomeKind.POLE_HIT, n)
            if not (math.isfinite(x) and math.isfinite(y)):
                return Outcome2d(OutcomeKind.ESCAPED, first_out if first_out else n)
            if first_out == 0 and math.sqrt(x * x + y * y) > radius:
                first_out = n
        if math.sqrt(x * x + y * y) > radius:
            return Outcome2d(OutcomeKind.ESCAPED, first_out)
        return Outcome2d(OutcomeKind.INDETERMINATE, params.max_iter, Complex(x, y))

    px, py = seed
    for n in range(1, params.max_iter + 1):
        try:
            x, y = _eval_cmap(F, px, py)
        except Pole2d:
            return Outcome2d(OutcomeKind.POLE_HIT, n)
        if not (math.isfinite(x) and math.isfinite(y)):
            return Outcome2d(OutcomeKind.ESCAPED, n)
        dx = x - px
        dy = y - py
        if math.sqrt(dx * dx + dy * dy) < radius:
            return Outcome2d(OutcomeKind.CONVERGED, n, Complex(x, y))
        px, py = x, y
    return Outcome2d(OutcomeKind.INDETERMINATE, params.max_iter, Complex(px, py))


def is_plotted2d(outcome: Outcome2d, params: ClassifierParams) -> bool:
    if outcome.kind is OutcomeKind.POLE_HIT or outcome.kind is OutcomeKind.ESCAPED:
        return False
    if params.method is ClassifierMethod.ESCAPE_TIME:
        return outcome.kind is OutcomeKind.INDETERMINATE
    if outcome.kind is OutcomeKind.INDETERMINATE:
        return True
    return outcome.steps >= params.cutoff_count


def render_slice2d(
    F: CMap,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int],
    params: ClassifierParams,
) -> np.ndarray:
    """Plotted-bit array over the window; bits[iy, ix], iy=0 at ymin.

    Samples window corners at min + i*delta, the same grid convention the
    volume scanner uses, so a 2-D slice and the matching 3-D mid-plane
    sample identical complex numbers.
    """
    xmin, xmax, ymin, ymax = window
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution components must be >= 2")
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("window must have positive extent")
    dx = (xmax - xmin) / (nx - 1)
    dy = (ymax - ymin) / (ny - 1)
    bits = np.zeros((ny, nx), dtype=bool)
    for iy in range(ny):
        y = ymin + iy * dy
        for ix in range(nx):
            z = Complex(xmin + ix * dx, y)
            bits[iy, ix] = is_plotted2d(classify2d(F, z, params), params)
    return bits


def write_pgm(path, bits: np.ndarray) -> None:
    """Binary P5 bitmap, plotted pixels white; top image row = max y."""
    if bits.ndim != 2:
        raise ValueError("bits must be a 2-D array")
    ny, nx = bits.shape
    payload = np.where(bits[::-1, :], np.uint8(255), np.uint8(0))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(payload.tobytes())
