"""Iterated quaternion maps and per-seed orbit classification.

A map is a quotient of two left-coefficient polynomials over the
quaternions.  Two classifiers are provided: the classic escape-time test
(did the orbit leave a bailout ball) and the cut-off rate test (how many
steps before successive iterates fall within distance r of each other).
The second one needs no knowledge of attractor locations, which is what
makes basin boundaries of Newton maps renderable.

The scalar orbit loop runs on bare floats (r, m, n, p); ``Quaternion``
appears only at the public edges (``eval_poly``, ``eval_map`` and the
``last`` field of an outcome).  ``_eval_poly`` and ``_eval_map`` mirror
``field._eval_poly_batch`` and ``field._step_batch`` line for line, and
``classify`` mirrors ``field._classify_batch``, the one-cell case of the
batch loop ``field._classify_cells`` (which answers several (radius,
max_iter) cells from one orbit pass for a sweep); keep expression order
in sync between the two, the renderer relies on the scalar and batch
paths agreeing bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

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


def polynomial_map(coeffs: Sequence[RealOrQuat]) -> QRationalMap:
    return QRationalMap(QPolynomial.from_coeffs(coeffs))


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
    # Horner, mirrored by field._eval_poly_batch
    ar, am, an, ap = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        r = ar * hr - am * hm - an * hn - ap * hp
        m = ar * hm + am * hr + an * hp - ap * hn
        n = ar * hn - am * hp + an * hr + ap * hm
        p = ar * hp + am * hn - an * hm + ap * hr
        c = coeffs[k]
        ar = r + c.r
        am = m + c.m
        an = n + c.n
        ap = p + c.p
    return ar, am, an, ap


def _eval_map(F: QRationalMap, hr, hm, hn, hp):
    # One map application, mirrored by field._step_batch
    nr, nm, nn, npp = _eval_poly(F.numerator.coeffs, hr, hm, hn, hp)
    dr, dm, dn, dp = _eval_poly(F.denominator.coeffs, hr, hm, hn, hp)
    ns = dr * dr + dm * dm + dn * dn + dp * dp
    if not ns > quat.EPS_DIV:
        raise PoleError(f"denominator vanished at {Quaternion(hr, hm, hn, hp)}")
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
    """Evaluate by Horner's rule; coefficients stay on the left of the powers."""
    return Quaternion(*_eval_poly(f.coeffs, *h))


def eval_map(F: QRationalMap, h: Quaternion) -> Quaternion:
    """P(h) * Q(h)^-1, division realized as right-multiplication by the inverse."""
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


@dataclass(frozen=True)
class ClassifierParams:
    method: ClassifierMethod
    radius: float
    max_iter: int
    cutoff_count: Optional[int] = None

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
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


def is_plotted(outcome: OrbitOutcome, params: ClassifierParams) -> bool:
    """Whether a classified seed belongs to the rendered set.

    Escape time plots the non-escaping interior.  Cut-off rate plots
    never-settling orbits plus the slowly converging ones (steps at or
    above cutoff_count), which together hug the basin boundaries.
    """
    if outcome.kind is OutcomeKind.POLE_HIT or outcome.kind is OutcomeKind.ESCAPED:
        return False
    if params.method is ClassifierMethod.ESCAPE_TIME:
        return outcome.kind is OutcomeKind.INDETERMINATE
    if outcome.kind is OutcomeKind.INDETERMINATE:
        return True
    return outcome.steps >= params.cutoff_count


def orbit_points(F: QRationalMap, seed: Quaternion, steps: int) -> list[Quaternion]:
    """Seed followed by up to `steps` iterates.

    Stops early after a pole hit, or right after the first non-finite
    iterate (which is included).  Mainly a debugging and test aid.
    """
    pts = [seed]
    p = seed
    for _ in range(steps):
        try:
            p = eval_map(F, p)
        except PoleError:
            break
        pts.append(p)
        if not quat.is_finite(p):
            break
    return pts
