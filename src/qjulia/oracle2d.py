"""Independent complex-plane cross-check for the quaternion classifiers.

Everything numeric in this module is written against a plain (re, im)
pair on purpose: the whole point is to validate the quaternion pipeline
against separately written arithmetic, so nothing here may call into
``qjulia.quat`` or reuse iteration loops from ``qjulia.dynamics``.  Only
the outcome/parameter record types are shared so results compare 1:1.

Formulas deliberately follow the same evaluation order as the scalar
quaternion path (Horner evaluation, division as multiply-by-inverse),
which makes the two implementations agree exactly on the complex slice
rather than merely to a tolerance: the quaternion Horner skips the
terms of zero coefficient parts, which this module's does not, so the
two may differ in the sign of a zero, which ``==`` and every tag ignore.

Within the module the per-seed arithmetic exists once and runs on
Python floats and on float64 arrays alike: ``_eval_cpoly`` (Horner),
``_cdivide`` (division by the denominator) and ``_plotted2d_bits`` (the
plotted rule).  Only the orbit loop is twinned: ``classify2d`` is the
scalar reference, and ``_classify2d_batch`` is its batch mirror, which
``render_slice2d`` runs over the window in ``_CHUNK``-lane chunks.  Keep
the two loops' decisions in sync; they must agree bit for bit.

The slice grid's rule is this module's own, on its own floats:
``grid_steps`` refuses a window and resolution whose step
``(max - min)/(n - 1)`` is not positive or whose far corner
``min + (n - 1)*step`` is not finite, and ``render_slice2d`` calls it
before it classifies any seed.  ``cmap`` takes real coefficients, the
only maps with a complex slice.

The public names are what the CLI and the acceptance gate run; a test
of one map step or one plotted bit calls ``_eval_cmap`` or
``_plotted2d_bits``, the helpers both loops run.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from qjulia.dynamics import ClassifierMethod, ClassifierParams, OutcomeKind

EPS_DIV = 1e-300
# lanes per _classify2d_batch call in render_slice2d: as cut-off lanes
# retire, a wide batch keeps each numpy op wide; a much wider one
# outgrows the cache and costs memory for no gain
_CHUNK = 16384


class Pole2d(ArithmeticError):
    pass


class Complex(NamedTuple):
    re: float
    im: float


class CMap(NamedTuple):
    """Rational map as ascending-degree coefficient tuples."""

    numerator: tuple[Complex, ...]
    denominator: tuple[Complex, ...]


def cmap(num: Sequence[float], den: Sequence[float] = (1.0,)) -> CMap:
    """The map with these real ascending-degree coefficients."""
    return CMap(*(tuple(Complex(float(c), 0.0) for c in cs) for cs in (num, den)))


def _eval_cpoly(coeffs: tuple[Complex, ...], x, y):
    # Horner on floats or on arrays; a one-coefficient polynomial returns
    # the coefficient's floats whatever x and y are
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
    return _cdivide(nr, ni, dr, di, ns)


def _cdivide(nr, ni, dr, di, ns):
    """n * d^-1 given ns = |d|^2; the caller has ruled out (or masks) poles."""
    ir = dr / ns
    ii = -di / ns
    return nr * ir - ni * ii, nr * ii + ni * ir


class Outcome2d(NamedTuple):
    kind: OutcomeKind
    steps: int
    last: Optional[Complex] = None


def classify2d(F: CMap, seed: Complex, params: ClassifierParams) -> Outcome2d:
    """Complex twin of dynamics.classify; same decision rules throughout.

    One orbit loop: a pole ends it as PoleHit{n}, overflow to non-finite
    as Escaped, and only the per-step test differs by method.
    """
    escape = params.method is ClassifierMethod.ESCAPE_TIME
    radius = params.radius
    px, py = seed
    first_out = 0
    for n in range(1, params.max_iter + 1):
        try:
            x, y = _eval_cmap(F, px, py)
        except Pole2d:
            return Outcome2d(OutcomeKind.POLE_HIT, n)
        if not (math.isfinite(x) and math.isfinite(y)):
            return Outcome2d(OutcomeKind.ESCAPED, first_out if first_out else n)
        if escape:
            if first_out == 0 and math.sqrt(x * x + y * y) > radius:
                first_out = n
        else:
            dx = x - px
            dy = y - py
            if math.sqrt(dx * dx + dy * dy) < radius:
                return Outcome2d(OutcomeKind.CONVERGED, n, Complex(x, y))
        px, py = x, y
    if escape and math.sqrt(px * px + py * py) > radius:
        return Outcome2d(OutcomeKind.ESCAPED, first_out)
    return Outcome2d(OutcomeKind.INDETERMINATE, params.max_iter, Complex(px, py))


def _classify2d_batch(F: CMap, xs: np.ndarray, ys: np.ndarray, params: ClassifierParams):
    """Vectorized classify2d over 1-D arrays of seed coordinates.

    Mirrors classify2d decision for decision: a pole lane divides by its
    near-zero norm under errstate and is masked instead of raised, and
    lanes leave the working set as they resolve, so each lane's result
    depends only on its own seed.  Returns (tags uint8, steps uint32).
    """
    escape = params.method is ClassifierMethod.ESCAPE_TIME
    radius = params.radius
    tags = np.full(xs.size, OutcomeKind.INDETERMINATE, dtype=np.uint8)
    steps = np.full(xs.size, params.max_iter, dtype=np.uint32)
    first_out = np.zeros(xs.size, dtype=np.uint32)
    idx = np.arange(xs.size)
    px, py = xs, ys
    with np.errstate(all="ignore"):
        for n in range(1, params.max_iter + 1):
            nr, ni = _eval_cpoly(F.numerator, px, py)
            # a one-coefficient denominator is floats; filled to lane shape,
            # the pole mask and the quotient are arrays
            dr, di = (
                d if isinstance(d, np.ndarray) else np.full_like(px, d)
                for d in _eval_cpoly(F.denominator, px, py)
            )
            ns = dr * dr + di * di
            # not ns > EPS_DIV, so that a NaN norm is a pole too
            pole = np.logical_not(ns > EPS_DIV)
            x, y = _cdivide(nr, ni, dr, di, ns)
            finite = np.isfinite(x) & np.isfinite(y)
            blown = ~finite & ~pole
            tags[idx[pole]] = OutcomeKind.POLE_HIT
            steps[idx[pole]] = n
            if blown.any():
                # overflow reports the first step outside the ball, if any
                out = first_out[idx[blown]]
                tags[idx[blown]] = OutcomeKind.ESCAPED
                steps[idx[blown]] = np.where(out != 0, out, n)
            live = finite & ~pole
            if escape:
                newly = live & (first_out[idx] == 0) & (np.sqrt(x * x + y * y) > radius)
                first_out[idx[newly]] = n
            else:
                dx = x - px
                dy = y - py
                conv = live & (np.sqrt(dx * dx + dy * dy) < radius)
                tags[idx[conv]] = OutcomeKind.CONVERGED
                steps[idx[conv]] = n
                live &= ~conv
            idx = idx[live]
            if idx.size == 0:
                break
            px, py = x[live], y[live]
        else:
            # max_iter steps ran with lanes left: escape time judges the last iterate
            if escape:
                out = idx[np.sqrt(px * px + py * py) > radius]
                tags[out] = OutcomeKind.ESCAPED
                steps[out] = first_out[out]
    return tags, steps


def _plotted2d_bits(kind, steps, params: ClassifierParams):
    """Whether outcomes are plotted, on ints or on arrays of tags and steps."""
    if params.method is ClassifierMethod.ESCAPE_TIME:
        return kind == OutcomeKind.INDETERMINATE
    return (kind == OutcomeKind.INDETERMINATE) | (
        (kind == OutcomeKind.CONVERGED) & (steps >= params.cutoff_count)
    )


# render_slice2d's bounds and grid rule; config checks job slice blocks with them
def checked_window(window: tuple[float, float, float, float]):
    """window, if it has positive, finite extent on both axes."""
    xmin, xmax, ymin, ymax = window
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("window must have positive extent")
    if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
        raise ValueError("window extent must be finite")
    return window


def checked_resolution(resolution: tuple[int, int]):
    """resolution, if it samples each axis at both ends and a float holds
    each axis's interval count."""
    if min(resolution) < 2:
        raise ValueError("resolution components must be >= 2")
    if max(resolution) - 1 > sys.float_info.max:
        raise ValueError("resolution components must fit a float")
    return resolution


def grid_steps(window, resolution) -> tuple[float, float]:
    """(dx, dy) of render_slice2d's grid, if window and resolution pass
    their checks and each axis's step is positive and far corner finite:
    an extent can overflow, a step underflow, and a finite step round the
    far corner beyond the float range."""
    xmin, xmax, ymin, ymax = checked_window(window)
    nx, ny = checked_resolution(resolution)
    dx, dy = (xmax - xmin) / (nx - 1), (ymax - ymin) / (ny - 1)
    for lo, n, step in ((xmin, nx, dx), (ymin, ny, dy)):
        if not (step > 0.0 and math.isfinite(lo + (n - 1) * step)):
            raise ValueError("grid step must be positive and every coordinate finite")
    return dx, dy


def render_slice2d(
    F: CMap,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int],
    params: ClassifierParams,
) -> np.ndarray:
    """Plotted-bit array over the window; bits[iy, ix], iy=0 at ymin.

    Samples window corners at min + i*delta, the same grid convention the
    volume scanner uses, so a 2-D slice and the matching 3-D mid-plane
    sample identical complex numbers.  A grid that grid_steps refuses
    raises ValueError before any seed is classified.
    """
    dx, dy = grid_steps(window, resolution)
    xmin, _, ymin, _ = window
    nx, ny = resolution
    total = nx * ny
    bits = np.empty(total, dtype=bool)
    # chunks split the flat index ix + nx*iy; each lane's result depends
    # only on its own seed, so the chunk size never changes the bits
    for lo in range(0, total, _CHUNK):
        flat = np.arange(lo, min(lo + _CHUNK, total))
        xs = xmin + (flat % nx).astype(np.float64) * dx
        ys = ymin + (flat // nx).astype(np.float64) * dy
        tags, steps = _classify2d_batch(F, xs, ys, params)
        bits[lo : lo + flat.size] = _plotted2d_bits(tags, steps, params)
    return bits.reshape(ny, nx)


def write_pgm(path, bits: np.ndarray) -> None:
    """Binary P5 bitmap, plotted pixels white; top image row = max y."""
    if bits.ndim != 2:
        raise ValueError("bits must be a 2-D array")
    ny, nx = bits.shape
    payload = np.where(bits[::-1, :], np.uint8(255), np.uint8(0))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(payload.tobytes())
