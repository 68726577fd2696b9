"""End-to-end acceptance gate.

Every test prints one "[acceptance] criterion N: PASS/FAIL" line with
its measured numbers before asserting, so a plain run documents exactly
which guarantees hold.  Run `pytest -s tests/test_acceptance.py` to see
the lines for passing criteria too.
"""

import math
import random
import time

import numpy as np

from conftest import threshold_margin
from qjulia import field, quat, render
from qjulia.dynamics import (
    ClassifierMethod,
    ClassifierParams,
    OutcomeKind,
    QPolynomial,
    classify,
    is_plotted,
    newton_transform,
    quadratic_map,
)
from qjulia.field import DEFAULT_EMBEDDING, Region3
from qjulia.oracle2d import Complex, classify2d, cmap, render_slice2d
from qjulia.quat import Quaternion
from qjulia.render import Camera, LightingParams

GUARD = 1e-9

NEWTON = newton_transform(QPolynomial.from_coeffs((-1.0, 0.0, 0.0, 1.0)))
NEWTON_2D = cmap((1.0, 0.0, 0.0, 2.0), (0.0, 0.0, 3.0))
SQUARE = quadratic_map(quat.ONE, quat.ZERO)

REGION_33 = Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (33, 33, 33))
REGION_65 = Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (65, 65, 65))
ESCAPE_R4 = ClassifierParams(ClassifierMethod.ESCAPE_TIME, 4.0, 24)
ESCAPE_R2 = ClassifierParams(ClassifierMethod.ESCAPE_TIME, 2.0, 24)
CUTOFF = ClassifierParams(ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 25)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def rel_err(a: Quaternion, b: Quaternion) -> float:
    return quat.distance(a, b) / max(1.0, quat.norm(a), quat.norm(b))


def test_criterion_1_algebra_suite():
    rng = random.Random(20260826)

    def rq():
        return Quaternion(
            rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)
        )

    t0 = time.perf_counter()
    checks = 0
    failures = 0
    for _ in range(25_000):
        a, b, c = rq(), rq(), rq()
        lhs = quat.mul(quat.mul(a, b), c)
        rhs = quat.mul(a, quat.mul(b, c))
        failures += rel_err(lhs, rhs) > 1e-10
        ln = quat.norm(quat.mul(a, b))
        rn = quat.norm(a) * quat.norm(b)
        failures += abs(ln - rn) > 1e-10 * max(1.0, ln, rn)
        failures += (
            rel_err(quat.conj(quat.mul(a, b)), quat.mul(quat.conj(b), quat.conj(a)))
            > 1e-12
        )
        while quat.norm(a) <= 1e-3:
            a = rq()
        diff = quat.sub(quat.mul(a, quat.inverse(a)), quat.ONE)
        failures += max(abs(diff.r), abs(diff.m), abs(diff.n), abs(diff.p)) > 1e-12
        checks += 4
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and checks >= 100_000 and elapsed < 5.0
    report(1, ok, f"{checks} checks, {failures} failures, {elapsed:.2f}s")
    assert checks >= 100_000
    assert failures == 0
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence():
    cases = [
        ("z^2", SQUARE, cmap((0.0, 0.0, 1.0)), ESCAPE_R2),
        ("z^2-1", quadratic_map(quat.ONE, Quaternion(-1.0, 0.0, 0.0, 0.0)),
         cmap((-1.0, 0.0, 1.0)), ESCAPE_R2),
        ("z^2+0.25", quadratic_map(quat.ONE, Quaternion(0.25, 0.0, 0.0, 0.0)),
         cmap((0.25, 0.0, 1.0)), ESCAPE_R2),
        ("newton", NEWTON, NEWTON_2D, CUTOFF),
    ]
    rng = random.Random(7)
    t0 = time.perf_counter()
    mismatches = 0
    excluded = 0
    compared = 0
    for _, Fq, Fc, params in cases:
        for _ in range(10_000):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if threshold_margin(Fq, Quaternion(x, y, 0.0, 0.0), params) < GUARD:
                excluded += 1
                continue
            oq = classify(Fq, Quaternion(x, y, 0.0, 0.0), params)
            oc = classify2d(Fc, Complex(x, y), params)
            mismatches += (oq.kind, oq.steps) != (oc.kind, oc.steps)
            compared += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(
        2,
        ok,
        f"{compared} seeds agree, {mismatches} mismatches, "
        f"{excluded} near-threshold excluded, {elapsed:.2f}s",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_3_rotational_symmetry():
    basilica = quadratic_map(quat.ONE, Quaternion(-1.0, 0.0, 0.0, 0.0))
    combos = [
        (NEWTON, ESCAPE_R4),
        (NEWTON, CUTOFF),
        (basilica, ESCAPE_R2),
        (basilica, ClassifierParams(ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 25)),
    ]
    rng = random.Random(11)
    mismatches = 0
    excluded = 0
    for F, params in combos:
        for _ in range(1000):
            r = rng.uniform(-2, 2)
            m = rng.uniform(-2, 2)
            n = rng.uniform(-2, 2)
            seed = Quaternion(r, m, n, 0.0)
            rotated = Quaternion(r, math.hypot(m, n), 0.0, 0.0)
            if (
                threshold_margin(F, seed, params) < GUARD
                or threshold_margin(F, rotated, params) < GUARD
            ):
                excluded += 1
                continue
            a = is_plotted(classify(F, seed, params), params)
            b = is_plotted(classify(F, rotated, params), params)
            mismatches += a != b
    ok = mismatches == 0
    report(
        3,
        ok,
        f"4000 seed pairs, {mismatches} plotted-bit mismatches, "
        f"{excluded} near-threshold excluded",
    )
    assert mismatches == 0


def test_criterion_4_escape_time_failure_mode():
    t0 = time.perf_counter()
    fld = field.scan(NEWTON, REGION_33, DEFAULT_EMBEDDING, ESCAPE_R4, workers=1)
    elapsed = time.perf_counter() - t0
    escaped = fld.counts()[OutcomeKind.ESCAPED]
    plotted = fld.fraction_plotted()
    ok = escaped == 0 and plotted > 0.99 and elapsed < 30.0
    report(
        4,
        ok,
        f"escaped voxels {escaped} (criterion expects 0), "
        f"plotted fraction {plotted:.5f}, {elapsed:.2f}s",
    )
    assert elapsed < 30.0
    assert plotted > 0.99
    # Orbits that graze a pole preimage late can still sit outside the
    # ball at the final iterate, so a handful of boundary voxels report
    # Escaped on this grid; the zero-Escaped expectation does not hold.
    assert escaped == 0, (
        f"{escaped} voxels classify as Escaped under the stated parameters"
    )


def test_criterion_5_cutoff_rate_success(tmp_path):
    t0 = time.perf_counter()
    fld = field.scan(NEWTON, REGION_65, DEFAULT_EMBEDDING, CUTOFF, workers=1)
    frac = fld.fraction_plotted()
    image = render.render_image(
        NEWTON,
        REGION_65,
        DEFAULT_EMBEDDING,
        CUTOFF,
        Camera("+z", (128, 128)),
        LightingParams(),
        k_refine=20,
        workers=1,
    )
    hit_frac = float((image > 0).mean())
    mid = fld.plotted_mask()[32]
    bits = render_slice2d(NEWTON_2D, (-2.0, 2.0, -2.0, 2.0), (65, 65), CUTOFF)
    agreement = float((mid == bits).mean())
    elapsed = time.perf_counter() - t0
    ok = 0.0 < frac < 0.5 and 0.01 <= hit_frac <= 0.60 and agreement >= 0.90 and elapsed < 60.0
    report(
        5,
        ok,
        f"plotted fraction {frac:.4f}, hit pixels {hit_frac:.3f}, "
        f"mid-slice agreement {agreement:.3f}, {elapsed:.2f}s",
    )
    assert 0.0 < frac < 0.5
    assert 0.01 <= hit_frac <= 0.60
    assert agreement >= 0.90
    assert elapsed < 60.0


def test_criterion_6_bisection_precision():
    # at 50 iterates the h^2 fate boundary sits within 8e-16 of |h|=1,
    # well inside the 1e-8 budget left after 30 halvings of a 1.4 bracket
    params = ClassifierParams(ClassifierMethod.ESCAPE_TIME, 2.0, 50)
    rng = random.Random(3)
    worst = 0.0
    for _ in range(100):
        u = Quaternion(
            rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        )
        while quat.norm(u) < 1e-6:
            u = Quaternion(
                rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
            )
        u = quat.scale(u, 1.0 / quat.norm(u))
        crossing = render.refine_bisect(
            SQUARE, quat.scale(u, 0.3), quat.scale(u, 1.7), params, 30
        )
        worst = max(worst, abs(quat.norm(crossing) - 1.0))
    ok = worst <= 1e-8
    report(6, ok, f"100 rays, worst |crossing - sphere| = {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_7_unit_disc_slice():
    bits = render_slice2d(cmap((0.0, 0.0, 1.0)), (-2.0, 2.0, -2.0, 2.0), (256, 256), ESCAPE_R2)
    delta = 4.0 / 255.0
    xs = -2.0 + delta * np.arange(256)
    xx, yy = np.meshgrid(xs, xs)
    radius = np.sqrt(xx * xx + yy * yy)
    truth = radius <= 1.0
    mismatch = bits != truth
    outside_annulus = int((mismatch & (np.abs(radius - 1.0) > delta)).sum())
    ok = outside_annulus == 0
    report(
        7,
        ok,
        f"{int(mismatch.sum())} mismatching pixels, "
        f"{outside_annulus} outside the one-pixel annulus",
    )
    assert outside_annulus == 0


def test_criterion_8_worker_determinism(tmp_path):
    def raw_bytes(fld, name):
        path = tmp_path / name
        field.save_raw(fld, path)
        return path.read_bytes()

    def ppm_bytes(image, name):
        path = tmp_path / name
        render.write_ppm(path, image)
        return path.read_bytes()

    blobs = {}
    for w in (1, 2, 8):
        f33 = field.scan(NEWTON, REGION_33, DEFAULT_EMBEDDING, ESCAPE_R4, workers=w)
        f65 = field.scan(NEWTON, REGION_65, DEFAULT_EMBEDDING, CUTOFF, workers=w)
        image = render.render_image(
            NEWTON,
            REGION_65,
            DEFAULT_EMBEDDING,
            CUTOFF,
            Camera("+z", (128, 128)),
            LightingParams(),
            k_refine=20,
            workers=w,
        )
        blobs[w] = (
            raw_bytes(f33, f"f33_w{w}.qjf"),
            raw_bytes(f65, f"f65_w{w}.qjf"),
            ppm_bytes(image, f"img_w{w}.ppm"),
        )
    same = blobs[1] == blobs[2] == blobs[8]
    report(8, same, "scan 33^3, scan 65^3, render 128^2 byte-identical for 1/2/8 workers")
    assert same
