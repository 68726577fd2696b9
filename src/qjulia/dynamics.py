"""Iterated quaternion maps and per-seed orbit classification.

A map is a quotient of two left-coefficient polynomials over the
quaternions.  Two classifiers are provided: the classic escape-time test
(did the orbit leave a bailout ball) and the cut-off rate test (how many
steps before successive iterates fall within distance r of each other).
The second one needs no knowledge of attractor locations, which is what
makes basin boundaries of Newton maps renderable.

The per-seed arithmetic exists once, here, and runs on Python floats
and on float64 arrays alike: ``_eval_poly`` (Horner), ``_divide`` (right
division by the denominator) and ``plotted_bits`` (the plotted rule).
The same operations in the same order give the same IEEE results on
either, so ``classify_cells``' loop calls them for a whole batch of lanes.
Only the orbit loops are twinned: ``classify`` runs on bare floats
(r, m, n, p), with ``Quaternion`` only at the public edges, and
``classify_cells`` is its batch mirror, which ``field.scan`` and
``render.cast_rays`` run on their ClassifierParams cells.  The two must
agree bit for bit, decision for decision: the renderer's hits and the
scan's independence of the worker count rest on it, so an edit to one
loop is an edit to both.

``eval_poly`` and ``eval_map`` stay public though the package runs only
the float forms: they are the Quaternion edge of the one Horner and
division, where tests check that arithmetic against ``quat``'s algebra.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from qjulia import quat
from qjulia.quat import Quaternion


class NonRealCoefficients(ValueError):
    """Newton transform requested for a polynomial with non-real coefficients."""


class PoleError(ArithmeticError):
    """evalMap denominator was numerically zero (orbit hit a pole)."""


RealOrQuat = Union[float, int, Quaternion]


def _as_quat(c: RealOrQuat) -> Quaternion:
    if isinstance(c, Quaternion):
        return c
    return Quaternion(float(c), 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class QPolynomial:
    """Polynomial sum_k c_k * h^k with coefficients multiplying on the left."""

    coeffs: tuple[Quaternion, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        lead = self.coeffs[-1]
        if lead == quat.ZERO:
            raise ValueError("leading coefficient must be non-zero")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[RealOrQuat]) -> "QPolynomial":
        return cls(tuple(_as_quat(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_real(self) -> bool:
        return all(c.m == 0.0 and c.n == 0.0 and c.p == 0.0 for c in self.coeffs)


_ONE_POLY = QPolynomial((quat.ONE,))


@dataclass(frozen=True)
class QRationalMap:
    numerator: QPolynomial
    denominator: QPolynomial = _ONE_POLY

    @property
    def is_real(self) -> bool:
        return self.numerator.is_real and self.denominator.is_real


def quadratic_map(p: RealOrQuat, q: RealOrQuat) -> QRationalMap:
    """The family p*h^2 + q."""
    return QRationalMap(QPolynomial.from_coeffs([q, 0.0, p]))


def rational_map(
    num_coeffs: Sequence[RealOrQuat], den_coeffs: Sequence[RealOrQuat]
) -> QRationalMap:
    return QRationalMap(
        QPolynomial.from_coeffs(num_coeffs), QPolynomial.from_coeffs(den_coeffs)
    )


def _eval_poly(coeffs: tuple[Quaternion, ...], hr, hm, hn, hp):
    """Horner's rule on floats or on float64 arrays (classify_cells' loop).

    A one-coefficient polynomial returns the coefficient's floats
    whatever h is.  Otherwise every term that a coefficient part of
    exactly 0.0 contributes is skipped: the lead times h has one product
    per non-zero part of the lead (4 multiplies for a real lead, not 16
    multiplies and 12 adds), and a zero part of a lower coefficient is
    not added.  The terms kept are summed in the full formula's order,
    and a product of the running sum with h keeps the full formula.

    Precondition: h is finite (both orbit loops stop a lane at its first
    non-finite iterate, and config seeds are finite).  Then every skipped
    term is a signed zero, and x + 0.0 or x - (+-0) equals x, except that
    a zero x may change sign (adding -0.0 changes nothing at all).  So
    the result equals the full formula's under ==, and nothing downstream
    sees the sign of a zero: its consumers are >, <, ==, isfinite,
    squares in norms, and products with or quotients by ns > EPS_DIV.
    For a non-finite h a skipped 0*inf term would have been NaN.
    """
    ar, am, an, ap = coeffs[-1]
    if len(coeffs) == 1:
        return ar, am, an, ap
    # lead * h: the full product's terms in its order, less those of the
    # lead's zero parts; -0.0 + x is x, so a sum may start there
    if ar:
        r, m, n, p = ar * hr, ar * hm, ar * hn, ar * hp
    else:
        r = m = n = p = -0.0
    if am:
        r, m, n, p = r - am * hm, m + am * hr, n - am * hp, p + am * hn
    if an:
        r, m, n, p = r - an * hn, m + an * hp, n + an * hr, p - an * hm
    if ap:
        r, m, n, p = r - ap * hp, m - ap * hn, n + ap * hm, p + ap * hr
    for k in range(len(coeffs) - 2, -1, -1):
        cr, cm, cn, cp = coeffs[k]
        ar = r + cr if cr else r
        am = m + cm if cm else m
        an = n + cn if cn else n
        ap = p + cp if cp else p
        if k:
            r = ar * hr - am * hm - an * hn - ap * hp
            m = ar * hm + am * hr + an * hp - ap * hn
            n = ar * hn - am * hp + an * hr + ap * hm
            p = ar * hp + am * hn - an * hm + ap * hr
    return ar, am, an, ap


def _eval_map(F: QRationalMap, hr, hm, hn, hp):
    # one map application on floats; classify_cells' loop is the batch form
    nr, nm, nn, npp = _eval_poly(F.numerator.coeffs, hr, hm, hn, hp)
    dr, dm, dn, dp = _eval_poly(F.denominator.coeffs, hr, hm, hn, hp)
    ns = dr * dr + dm * dm + dn * dn + dp * dp
    if not ns > quat.EPS_DIV:
        raise PoleError(f"denominator vanished at {Quaternion(hr, hm, hn, hp)}")
    return _divide(nr, nm, nn, npp, dr, dm, dn, dp, ns)


def _divide(nr, nm, nn, npp, dr, dm, dn, dp, ns):
    """n * d^-1 given ns = |d|^2; the caller has ruled out (or masks) poles."""
    ir = dr / ns
    im = -dm / ns
    in_ = -dn / ns
    ip = -dp / ns
    br = nr * ir - nm * im - nn * in_ - npp * ip
    bm = nr * im + nm * ir + nn * ip - npp * in_
    bn = nr * in_ - nm * ip + nn * ir + npp * im
    bp = nr * ip + nm * in_ - nn * im + npp * ir
    return br, bm, bn, bp


def eval_poly(f: QPolynomial, h: Quaternion) -> Quaternion:
    """Evaluate by Horner's rule; coefficients stay on the left of the powers.

    h must be finite: the terms of zero coefficient parts are skipped
    (see _eval_poly).
    """
    return Quaternion(*_eval_poly(f.coeffs, *h))


def eval_map(F: QRationalMap, h: Quaternion) -> Quaternion:
    """P(h) * Q(h)^-1, division realized as right-multiplication by the inverse.

    h must be finite, as for eval_poly.
    """
    return Quaternion(*_eval_map(F, *h))


def newton_transform(f: QPolynomial) -> QRationalMap:
    """Closed rational form of h - f(h)/f'(h) for real-coefficient f.

    With real coefficients the polynomial algebra is classical, so
    h*f'(h) - f(h) expands to coefficients (k-1)*a_k.  Non-real
    coefficients make that quotient ambiguous and are refused.
    """
    if not f.is_real:
        raise NonRealCoefficients("Newton transform needs all-real coefficients")
    if f.degree < 2:
        raise ValueError("Newton transform needs degree >= 2")
    a = [c.r for c in f.coeffs]
    num = [(k - 1) * a[k] for k in range(len(a))]
    den = [(k + 1) * a[k + 1] for k in range(len(a) - 1)]
    return rational_map(num, den)


class ClassifierMethod(enum.Enum):
    ESCAPE_TIME = "escape"
    CUTOFF_RATE = "cutoff"


class OutcomeKind(enum.IntEnum):
    ESCAPED = 0
    CONVERGED = 1
    INDETERMINATE = 2
    POLE_HIT = 3


OUTCOME_LABELS = {
    OutcomeKind.ESCAPED: "escaped",
    OutcomeKind.CONVERGED: "converged",
    OutcomeKind.INDETERMINATE: "indeterminate",
    OutcomeKind.POLE_HIT: "pole_hit",
}


class OrbitOutcome(NamedTuple):
    kind: OutcomeKind
    steps: int
    last: Optional[Quaternion] = None


# step counts are stored as uint32 (field, oracle2d, DepthMap and QJF1)
_MAX_ITER = 2**32 - 1


@dataclass(frozen=True)
class ClassifierParams:
    """Classifier settings with a job's defaults.  An absent radius is the
    method's (2.0 escape time, 1e-3 cut-off rate); an absent cutoff_count
    is half of max_iter, at least 1."""

    method: ClassifierMethod = ClassifierMethod.CUTOFF_RATE
    radius: Optional[float] = None
    max_iter: int = 50
    cutoff_count: Optional[int] = None

    def __post_init__(self):
        if self.radius is None:
            escape = self.method is ClassifierMethod.ESCAPE_TIME
            object.__setattr__(self, "radius", 2.0 if escape else 1e-3)
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 1 <= self.max_iter <= _MAX_ITER:
            raise ValueError(f"max_iter must lie in [1, {_MAX_ITER}]")
        if self.cutoff_count is None:
            object.__setattr__(self, "cutoff_count", max(1, self.max_iter // 2))
        if not 1 <= self.cutoff_count <= self.max_iter:
            raise ValueError("cutoff_count must satisfy 1 <= cutoff_count <= max_iter")


def classify(F: QRationalMap, seed: Quaternion, params: ClassifierParams) -> OrbitOutcome:
    """Iterate the map from seed and report the orbit's fate.

    Both methods share one orbit loop: a pole ends it as PoleHit{n}, and
    overflow to non-finite ends it as Escaped.  Only the per-step test
    differs.

    Escape time: the step test just records the first n whose iterate
    lay outside the bailout ball (that is also the step count reported
    on overflow).  The verdict comes from the value left after max_iter
    steps.  Testing only the final value is what keeps orbits that shoot
    past the ball and come back, routine for Newton maps near poles, out
    of the escaped class.

    Cut-off rate: stop at the first n with |p_n - p_{n-1}| < radius and
    report Converged{n}.  Orbits that never settle within max_iter steps
    are Indeterminate, which downstream plotting treats as on-boundary.
    """
    escape = params.method is ClassifierMethod.ESCAPE_TIME
    radius = params.radius
    pr, pm, pn, pp = seed
    first_out = 0
    for n in range(1, params.max_iter + 1):
        try:
            br, bm, bn, bp = _eval_map(F, pr, pm, pn, pp)
        except PoleError:
            return OrbitOutcome(OutcomeKind.POLE_HIT, n)
        finite = (
            math.isfinite(br)
            and math.isfinite(bm)
            and math.isfinite(bn)
            and math.isfinite(bp)
        )
        if not finite:
            return OrbitOutcome(OutcomeKind.ESCAPED, first_out if first_out else n)
        if escape:
            if first_out == 0:
                norm = math.sqrt(br * br + bm * bm + bn * bn + bp * bp)
                if norm > radius:
                    first_out = n
        else:
            dr = br - pr
            dm = bm - pm
            dn = bn - pn
            dp = bp - pp
            dist = math.sqrt(dr * dr + dm * dm + dn * dn + dp * dp)
            if dist < radius:
                return OrbitOutcome(OutcomeKind.CONVERGED, n, Quaternion(br, bm, bn, bp))
        pr, pm, pn, pp = br, bm, bn, bp
    if escape and math.sqrt(pr * pr + pm * pm + pn * pn + pp * pp) > radius:
        return OrbitOutcome(OutcomeKind.ESCAPED, first_out)
    last = Quaternion(pr, pm, pn, pp)
    return OrbitOutcome(OutcomeKind.INDETERMINATE, params.max_iter, last)


def classify_cells(F: QRationalMap, cells: Sequence[ClassifierParams], hr, hm, hn, hp):
    """Vectorized classify for several cells at once.

    The cells share cells[0]'s method; their radii and max_iter may
    differ and repeat.

    The orbit does not depend on the radius, and a cell with a smaller
    max_iter sees a prefix of the longest orbit, so one pass to the
    largest max_iter answers every cell.  Per lane the loop records the
    step of a pole or overflow; per distinct radius, the first step
    outside the ball (escape time) or the first step with
    |p_n - p_{n-1}| < radius (cut-off rate, where a lane retires once its
    smallest radius converges, since every larger one has then converged
    too); and, for escape time, the norm at each distinct max_iter.  Each
    cell's tag and step are then read off those records exactly as
    classify would have decided them.

    Returns (tags uint8, steps uint32), both shaped (len(cells), count).
    Lanes drop out of the working set as they resolve; per-lane values
    never depend on other lanes, so any partition of seeds into batches
    gives identical results.
    """
    count = hr.size
    escape = cells[0].method is ClassifierMethod.ESCAPE_TIME
    radii = sorted({cell.radius for cell in cells})
    iters = sorted({cell.max_iter for cell in cells})
    first = [np.zeros(count, dtype=np.uint32) for _ in radii]
    # NaN where a lane ended before that step, and NaN > radius is False
    norm_at = {m: np.full(count, np.nan) for m in iters} if escape else {}
    ended = np.zeros(count, dtype=np.uint32)
    ended_tag = np.empty(count, dtype=np.uint8)
    idx = np.arange(count)

    prev = (hr, hm, hn, hp)
    # _eval_map is the scalar map step; here a pole lane divides by its
    # near-zero norm and is masked instead of raised
    with np.errstate(all="ignore"):
        for n in range(1, iters[-1] + 1):
            nr, nm, nn, npp = _eval_poly(F.numerator.coeffs, *prev)
            # a one-coefficient denominator (the 1 below a polynomial map) is
            # floats; filled to the live lanes' shape, the pole mask and the
            # quotient are arrays
            dr, dm, dn, dp = (
                d if isinstance(d, np.ndarray) else np.full_like(prev[0], d)
                for d in _eval_poly(F.denominator.coeffs, *prev)
            )
            ns = dr * dr + dm * dm + dn * dn + dp * dp
            # not ns > EPS_DIV, so that a NaN norm is a pole too
            pole = np.logical_not(ns > quat.EPS_DIV)
            br, bm, bn, bp = _divide(nr, nm, nn, npp, dr, dm, dn, dp, ns)
            finite = np.isfinite(br) & np.isfinite(bm) & np.isfinite(bn) & np.isfinite(bp)
            keep = finite & ~pole
            if not keep.all():
                # a pole wins over the non-finite quotient it gives
                gone = ~keep
                ended[idx[gone]] = n
                ended_tag[idx[gone]] = np.where(
                    pole[gone], OutcomeKind.POLE_HIT, OutcomeKind.ESCAPED
                )
            if escape:
                norm = np.sqrt(br * br + bm * bm + bn * bn + bp * bp)
                for radius, first_out in zip(radii, first):
                    newly = keep & (first_out[idx] == 0) & (norm > radius)
                    if newly.any():
                        first_out[idx[newly]] = n
                if n in norm_at:
                    norm_at[n][idx[keep]] = norm[keep]
            else:
                dr = br - prev[0]
                dm = bm - prev[1]
                dn = bn - prev[2]
                dp = bp - prev[3]
                dist = np.sqrt(dr * dr + dm * dm + dn * dn + dp * dp)
                # a live lane has not converged at the smallest radius yet
                retire = keep & (dist < radii[0])
                if retire.any():
                    first[0][idx[retire]] = n
                for radius, first_conv in zip(radii[1:], first[1:]):
                    conv = keep & (first_conv[idx] == 0) & (dist < radius)
                    if conv.any():
                        first_conv[idx[conv]] = n
                keep &= ~retire
            idx = idx[keep]
            if idx.size == 0:
                break
            prev = (br[keep], bm[keep], bn[keep], bp[keep])

    tags = np.empty((len(cells), count), dtype=np.uint8)
    steps = np.empty((len(cells), count), dtype=np.uint32)
    for tag, step, cell in zip(tags, steps, cells):
        radius, max_iter = cell.radius, cell.max_iter
        hit = first[radii.index(radius)]
        tag[:] = OutcomeKind.INDETERMINATE
        step[:] = max_iter
        if escape:
            out = norm_at[max_iter] > radius
            tag[out] = OutcomeKind.ESCAPED
            step[out] = hit[out]
        done = (ended != 0) & (ended <= max_iter)
        tag[done] = ended_tag[done]
        step[done] = ended[done]
        if escape:
            # overflow reports the first step outside the ball, if any
            late = done & (ended_tag == OutcomeKind.ESCAPED) & (hit != 0)
            step[late] = hit[late]
        else:
            conv = (hit != 0) & (hit <= max_iter)
            tag[conv] = OutcomeKind.CONVERGED
            step[conv] = hit[conv]
    return tags, steps


def plotted_bits(kind, steps, params: ClassifierParams):
    """Whether outcomes belong to the rendered set, on ints or arrays alike.

    kind and steps are an outcome's OutcomeKind and step count, or arrays
    of tags and steps.  Escape time plots the non-escaping interior.
    Cut-off rate plots never-settling orbits plus the slowly converging
    ones (steps at or above cutoff_count), which together hug the basin
    boundaries.  Pole hits and escapes are never plotted.
    """
    if params.method is ClassifierMethod.ESCAPE_TIME:
        return kind == OutcomeKind.INDETERMINATE
    return (kind == OutcomeKind.INDETERMINATE) | (
        (kind == OutcomeKind.CONVERGED) & (steps >= params.cutoff_count)
    )


def is_plotted(outcome: OrbitOutcome, params: ClassifierParams) -> bool:
    """Whether a classified seed belongs to the rendered set (plotted_bits)."""
    return bool(plotted_bits(outcome.kind, outcome.steps, params))

