
import itertools
import math
import random
import struct

from hypothesis import given, settings, strategies as st

import numpy as np
import pytest
from conftest import coeff_parts, nonzero_parts, partitions, radii_1e6_to_1e3, seed_parts

from qjulia import dynamics as dyn
from qjulia import quat
from qjulia.quat import Quaternion


CUBIC = dyn.QPolynomial.from_coeffs([-1.0, 0.0, 0.0, 1.0])
NEWTON = dyn.newton_transform(CUBIC)
SQUARE = dyn.quadratic_map(1.0, 0.0)

# Numerator and denominator both carry i, j and k parts, so every
# component of every Horner add and product is exercised.  On seeds in
# [-1, 1]^4, QUAT_CUBIC gives Escaped and Indeterminate under escape time
# and Converged and overflow-Escaped under cut-off rate; QUAT_NEWTON, a
# perturbed Newton map for h^3 - 1, keeps orbits bounded and gives
# Converged and Indeterminate under cut-off rate.
QUAT_CUBIC = dyn.rational_map(
    [
        Quaternion(0.1, -0.2, 0.05, 0.1),
        Quaternion(0.2, 0.1, -0.1, 0.05),
        Quaternion(0.3, -0.1, 0.2, 0.1),
        Quaternion(1.0, 0.2, -0.1, 0.3),
    ],
    [Quaternion(1.0, 0.1, -0.1, 0.2), Quaternion(0.1, 0.2, -0.15, 0.1)],
)
QUAT_NEWTON = dyn.rational_map(
    [
        Quaternion(1.0, 0.05, 0.0, -0.05),
        Quaternion(0.0, 0.03, -0.02, 0.01),
        0.0,
        Quaternion(2.0, 0.1, -0.1, 0.05),
    ],
    [
        Quaternion(0.0, 0.02, 0.01, -0.03),
        Quaternion(0.0, 0.05, 0.02, 0.0),
        Quaternion(3.0, 0.1, 0.0, -0.1),
    ],
)

components = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
seeds = st.builds(Quaternion, components, components, components, components)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        dyn.QPolynomial(())
    with pytest.raises(ValueError):
        dyn.QPolynomial.from_coeffs([1.0, 0.0])
    f = dyn.QPolynomial.from_coeffs([0.0, 0.0, 1.0])
    assert f.degree == 2
    assert f.is_real
    assert not dyn.QPolynomial.from_coeffs([Quaternion(0, 1, 0, 0), 1.0]).is_real


def test_eval_poly_examples():
    sq = dyn.QPolynomial.from_coeffs([0.0, 0.0, 1.0])
    assert dyn.eval_poly(sq, Quaternion(2, 0, 0, 0)) == Quaternion(4, 0, 0, 0)
    assert dyn.eval_poly(CUBIC, quat.ONE) == quat.ZERO
    plus_i = dyn.QPolynomial.from_coeffs([Quaternion(0, 1, 0, 0), 0.0, 1.0])
    assert dyn.eval_poly(plus_i, Quaternion(0, 0, 1, 0)) == Quaternion(-1, 1, 0, 0)


def test_eval_map_newton_examples():
    assert dyn.eval_map(NEWTON, quat.ONE) == quat.ONE
    out = dyn.eval_map(NEWTON, Quaternion(2, 0, 0, 0))
    assert abs(out.r - 17.0 / 12.0) < 1e-12
    assert (out.m, out.n, out.p) == (0.0, 0.0, 0.0)
    with pytest.raises(dyn.PoleError):
        dyn.eval_map(NEWTON, quat.ZERO)


def test_newton_transform_coefficients():
    assert [c.r for c in NEWTON.numerator.coeffs] == [1.0, 0.0, 0.0, 2.0]
    assert [c.r for c in NEWTON.denominator.coeffs] == [0.0, 0.0, 3.0]
    sq = dyn.newton_transform(dyn.QPolynomial.from_coeffs([-1.0, 0.0, 1.0]))
    assert [c.r for c in sq.numerator.coeffs] == [1.0, 0.0, 1.0]
    assert [c.r for c in sq.denominator.coeffs] == [0.0, 2.0]


def test_newton_transform_guards():
    with pytest.raises(dyn.NonRealCoefficients):
        dyn.newton_transform(
            dyn.QPolynomial.from_coeffs([1.0, 0.0, Quaternion(0, 1, 0, 0)])
        )
    with pytest.raises(ValueError):
        dyn.newton_transform(dyn.QPolynomial.from_coeffs([1.0, 1.0]))


def test_params_defaults_are_the_jobs():
    cutoff = dyn.ClassifierMethod.CUTOFF_RATE
    assert dyn.ClassifierParams() == dyn.ClassifierParams(cutoff, 1e-3, 50, 25)
    assert dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME).radius == 2.0


def test_params_validation():
    with pytest.raises(ValueError):
        dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, -1.0, 10)
    with pytest.raises(ValueError):
        dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1.0, 10, 11)
    with pytest.raises(ValueError):
        dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1.0, 0)
    # step counts are stored as uint32
    with pytest.raises(ValueError):
        dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1.0, 2**32)
    assert dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, 2.0, 2**32 - 1).max_iter == 2**32 - 1
    p = dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 50)
    assert p.cutoff_count == 25


def test_classify_escape_records_first_excursion():
    params = dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, 2.0, 24)
    out = dyn.classify(SQUARE, Quaternion(2, 0, 0, 0), params)
    assert out == dyn.OrbitOutcome(dyn.OutcomeKind.ESCAPED, 1)


def test_classify_escape_final_value_forgives_excursions():
    # |T(0.25)| = 5.5 shoots past the ball, yet the orbit settles near a
    # root of norm 1, so the final-value test keeps the voxel.
    params = dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, 4.0, 24)
    seed = Quaternion(0.25, 0.0, 0.0, 0.0)
    assert quat.norm(dyn.eval_map(NEWTON, seed)) > 4.0
    out = dyn.classify(NEWTON, seed, params)
    assert out.kind is dyn.OutcomeKind.INDETERMINATE
    assert out.steps == 24


def test_classify_newton_seed_two_never_escapes():
    params = dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, 4.0, 24)
    out = dyn.classify(NEWTON, Quaternion(2, 0, 0, 0), params)
    assert out.kind is dyn.OutcomeKind.INDETERMINATE
    assert quat.distance(out.last, quat.ONE) < 1e-9


def test_classify_cutoff_fixed_point():
    params = dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 0.01, 50, 2)
    out = dyn.classify(NEWTON, quat.ONE, params)
    assert out == dyn.OrbitOutcome(dyn.OutcomeKind.CONVERGED, 1, quat.ONE)
    assert not dyn.is_plotted(out, params)


def test_classify_cutoff_quadratic_convergence():
    params = dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 25)
    out = dyn.classify(NEWTON, Quaternion(2, 0, 0, 0), params)
    assert out.kind is dyn.OutcomeKind.CONVERGED
    assert out.steps < 10
    assert quat.distance(out.last, quat.ONE) < 1e-3


def test_classify_pole():
    params = dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 50)
    out = dyn.classify(NEWTON, quat.ZERO, params)
    assert out == dyn.OrbitOutcome(dyn.OutcomeKind.POLE_HIT, 1)
    assert not dyn.is_plotted(out, params)


def test_classify_overflow_is_escaped():
    params = dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 200)
    out = dyn.classify(SQUARE, Quaternion(3, 0, 0, 0), params)
    assert out.kind is dyn.OutcomeKind.ESCAPED
    assert 1 <= out.steps < 200


def test_is_plotted_rules():
    et = dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, 2.0, 24)
    co = dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 12)
    esc = dyn.OrbitOutcome(dyn.OutcomeKind.ESCAPED, 3)
    ind = dyn.OrbitOutcome(dyn.OutcomeKind.INDETERMINATE, 24, quat.ONE)
    assert not dyn.is_plotted(esc, et)
    assert dyn.is_plotted(ind, et)
    assert dyn.is_plotted(ind, co)
    assert not dyn.is_plotted(dyn.OrbitOutcome(dyn.OutcomeKind.CONVERGED, 2, quat.ONE), co)
    assert dyn.is_plotted(dyn.OrbitOutcome(dyn.OutcomeKind.CONVERGED, 15, quat.ONE), co)
    assert not dyn.is_plotted(dyn.OrbitOutcome(dyn.OutcomeKind.POLE_HIT, 1), co)


def test_plotted_set_monotone_in_cutoff_count():
    seeds_ = [
        Quaternion(0.3 * i - 1.5, 0.2 * j - 0.4, 0.1, 0.0)
        for i in range(11)
        for j in range(5)
    ]
    params = [
        dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 50, cc)
        for cc in (1, 10, 25, 40, 50)
    ]
    for s in seeds_:
        out = dyn.classify(NEWTON, s, params[0])
        bits = [dyn.is_plotted(out, p) for p in params]
        # once a point drops out it must stay out as cutoff_count rises
        for earlier, later in zip(bits, bits[1:]):
            assert earlier or not later


@given(seeds)
@settings(max_examples=200)
def test_left_right_division_agree_for_real_maps(h):
    num = dyn.eval_poly(NEWTON.numerator, h)
    den = dyn.eval_poly(NEWTON.denominator, h)
    if quat.norm_sq(den) < 1e-12:
        return
    inv = quat.inverse(den)
    left = quat.mul(num, inv)
    right = quat.mul(inv, num)
    err = quat.distance(left, right) / max(1.0, quat.norm(left))
    assert err <= 1e-10


@given(seeds)
@settings(max_examples=100)
def test_classify_deterministic(s):
    params = dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 30)
    assert dyn.classify(NEWTON, s, params) == dyn.classify(NEWTON, s, params)


def test_newton_escape_degenerate_on_coarse_grid():
    # escape time on the Newton map never fires at bailout 4: every voxel
    # of a 17^3 grid either converges toward a unit-norm root or hits the
    # pole at the origin
    params = dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, 4.0, 24)
    res, lo, step = 17, -2.0, 4.0 / 16
    counts = {kind: 0 for kind in dyn.OutcomeKind}
    for iz in range(res):
        for iy in range(res):
            for ix in range(res):
                s = Quaternion(lo + ix * step, lo + iy * step, lo + iz * step, 0.0)
                counts[dyn.classify(NEWTON, s, params).kind] += 1
    assert counts[dyn.OutcomeKind.ESCAPED] == 0
    assert counts[dyn.OutcomeKind.POLE_HIT] == 1
    assert counts[dyn.OutcomeKind.INDETERMINATE] == res**3 - 1


def _reference_horner(f, h):
    """Horner with every product and add in full, zero parts included."""
    acc = f.coeffs[-1]
    for k in range(len(f.coeffs) - 2, -1, -1):
        acc = quat.add(quat.mul(acc, h), f.coeffs[k])
    return acc


def _reference_classify(F, seed, params):
    """The Quaternion-per-operation orbit loop, kept as the reference."""
    escape = params.method is dyn.ClassifierMethod.ESCAPE_TIME
    prev = seed
    first_out = 0
    for n in range(1, params.max_iter + 1):
        try:
            inv = quat.inverse(_reference_horner(F.denominator, prev))
        except quat.DivisionByNearZero:
            return dyn.OrbitOutcome(dyn.OutcomeKind.POLE_HIT, n)
        cur = quat.mul(_reference_horner(F.numerator, prev), inv)
        if not quat.is_finite(cur):
            return dyn.OrbitOutcome(dyn.OutcomeKind.ESCAPED, first_out if first_out else n)
        if escape:
            if first_out == 0 and quat.norm(cur) > params.radius:
                first_out = n
        elif quat.distance(cur, prev) < params.radius:
            return dyn.OrbitOutcome(dyn.OutcomeKind.CONVERGED, n, cur)
        prev = cur
    if escape and quat.norm(prev) > params.radius:
        return dyn.OrbitOutcome(dyn.OutcomeKind.ESCAPED, first_out)
    return dyn.OrbitOutcome(dyn.OutcomeKind.INDETERMINATE, params.max_iter, prev)


def _bits(q):
    return None if q is None else struct.pack("<4d", *q)


def test_classify_matches_reference_on_quaternion_coefficients():
    rng = random.Random(2024)
    seeds = [Quaternion(*(rng.uniform(-1, 1) for _ in range(4))) for _ in range(300)]
    hr, hm, hn, hp = (np.array(c) for c in zip(*seeds))
    kinds = set()
    for F in (QUAT_CUBIC, QUAT_NEWTON):
        assert not F.numerator.is_real and not F.denominator.is_real
        for params in (
            dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, 2.0, 24),
            dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 25),
        ):
            outs = [dyn.classify(F, s, params) for s in seeds]
            for s, out in zip(seeds, outs):
                want = _reference_classify(F, s, params)
                assert (out.kind, out.steps) == (want.kind, want.steps)
                assert _bits(out.last) == _bits(want.last)
            (tags,), (steps,) = dyn.classify_cells(F, (params,), hr, hm, hn, hp)
            assert tags.tolist() == [o.kind for o in outs]
            assert steps.tolist() == [o.steps for o in outs]
            kinds.update(o.kind for o in outs)
    assert {
        dyn.OutcomeKind.CONVERGED,
        dyn.OutcomeKind.ESCAPED,
        dyn.OutcomeKind.INDETERMINATE,
    } <= kinds


# Coefficients with zero parts, which _eval_poly skips: every bundled map
# and Newton transform has them.  QUAT_ZERO_PARTS' lead has a zero real
# part, so its lead product starts from the -0.0 identity.
SQUARE_MINUS_ONE = dyn.quadratic_map(1.0, -1.0)
INTERWEAVING = dyn.rational_map([-3.0, 0.0, -2.0, 2.0], [1.0, 4.0, 3.0])
SQUARE_PLUS_I = dyn.quadratic_map(1.0, Quaternion(0, 1, 0, 0))
QUAT_ZERO_PARTS = dyn.QPolynomial.from_coeffs([
    Quaternion(0.0, 0.3, 0.0, -0.2),
    Quaternion(-0.5, 0.0, 0.0, 0.0),
    Quaternion(0.0, 0.8, 0.0, 0.6),
])
ZERO_PART_POLYS = {
    "newton-numerator": NEWTON.numerator,
    "newton-denominator": NEWTON.denominator,
    "square-minus-one": SQUARE_MINUS_ONE.numerator,
    "interweaving-numerator": INTERWEAVING.numerator,
    "interweaving-denominator": INTERWEAVING.denominator,
    "square-plus-i": SQUARE_PLUS_I.numerator,
    "quaternion-zero-parts": QUAT_ZERO_PARTS,
    "one-coefficient": dyn.QPolynomial.from_coeffs([Quaternion(0.0, -1.5, 0.0, 2.0)]),
}
ZERO_PART_MAPS = {
    "newton": NEWTON,
    "square-minus-one": SQUARE_MINUS_ONE,
    "interweaving": INTERWEAVING,
    "square-plus-i": SQUARE_PLUS_I,
    "quaternion-zero-parts": dyn.QRationalMap(QUAT_ZERO_PARTS),
}


def _random_seeds(count, seed):
    rng = random.Random(seed)
    return [Quaternion(*(rng.uniform(-2, 2) for _ in range(4))) for _ in range(count)]


# signed zeros in every component, 1e-200 (products underflow) and 1e150
# (products overflow), each mixed with ordinary values
EDGE_SEEDS = [
    Quaternion(*c)
    for c in itertools.product((0.0, -0.0, 1e-200, -1e-200, 1e150, -1e150, 0.75), repeat=4)
]


def _equal_or_both_nan(a, b):
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


@pytest.mark.parametrize("f", ZERO_PART_POLYS.values(), ids=ZERO_PART_POLYS.keys())
def test_eval_poly_skipping_zero_parts_matches_full_horner(f):
    seeds_ = _random_seeds(2000, 17) + EDGE_SEEDS
    got = [dyn._eval_poly(f.coeffs, *h) for h in seeds_]
    for h, g in zip(seeds_, got):
        assert _equal_or_both_nan(g, _reference_horner(f, h)), h
    # on arrays the same operations give the same bits, zero signs included
    hs = [np.array(c) for c in zip(*seeds_)]
    with np.errstate(all="ignore"):
        arrays = dyn._eval_poly(f.coeffs, *hs)
    for a, floats in zip(arrays, zip(*got)):
        want = np.array(floats)
        a = np.broadcast_to(a, want.shape)
        assert np.array_equal(a, want, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(want))


@pytest.mark.parametrize("F", ZERO_PART_MAPS.values(), ids=ZERO_PART_MAPS.keys())
@pytest.mark.parametrize("params", [
    dyn.ClassifierParams(dyn.ClassifierMethod.ESCAPE_TIME, 2.0, 24),
    dyn.ClassifierParams(dyn.ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 25),
], ids=["escape", "cutoff"])
def test_classify_on_zero_part_maps_matches_reference_and_batch(F, params):
    seeds_ = _random_seeds(300, 5) + EDGE_SEEDS
    outs = [dyn.classify(F, s, params) for s in seeds_]
    for s, out in zip(seeds_, outs):
        want = _reference_classify(F, s, params)
        assert (out.kind, out.steps) == (want.kind, want.steps), s
        assert out.last == want.last, s
    hr, hm, hn, hp = (np.array(c) for c in zip(*seeds_))
    (tags,), (steps,) = dyn.classify_cells(F, (params,), hr, hm, hn, hp)
    assert tags.tolist() == [o.kind for o in outs]
    assert steps.tolist() == [o.steps for o in outs]


# Generated maps, cells and seeds for the classify / classify_cells pair;
# a lead whose parts all came out zero gets a non-zero k part
quat_coeffs = st.builds(Quaternion, *[coeff_parts] * 4)
leads = st.builds(
    lambda c, p: c if c != quat.ZERO else Quaternion(*c[:3], p), quat_coeffs, nonzero_parts
)
gen_seeds = st.lists(st.tuples(*[seed_parts] * 4), min_size=1, max_size=24)


def polys(max_degree):
    lower = st.lists(quat_coeffs, max_size=max_degree)
    return st.builds(lambda cs, c: dyn.QPolynomial((*cs, c)), lower, leads)


gen_maps = st.builds(
    dyn.QRationalMap,
    polys(4),
    st.one_of(st.just(dyn.QPolynomial.from_coeffs([1.0])), polys(3)),
)


@st.composite
def gen_cells(draw):
    """One to four cells of one method; a radius or max_iter may repeat."""
    method = draw(st.sampled_from(dyn.ClassifierMethod))
    radii = draw(st.lists(radii_1e6_to_1e3, min_size=1, max_size=3))
    iters = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    pairs = st.tuples(st.sampled_from(radii), st.sampled_from(iters))
    return [
        dyn.ClassifierParams(method, radius, max_iter)
        for radius, max_iter in draw(st.lists(pairs, min_size=1, max_size=4))
    ]


@given(gen_maps, gen_cells(), gen_seeds, st.data())
@settings(deadline=None, max_examples=150, derandomize=True)
def test_classify_cells_matches_classify_on_generated_maps(F, cells, seeds_, data):
    cuts = data.draw(partitions(len(seeds_)))
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        hs = (np.array(c) for c in zip(*seeds_[lo:hi]))
        parts.append(dyn.classify_cells(F, cells, *hs))
    tags = np.concatenate([t for t, _ in parts], axis=1)
    steps = np.concatenate([s for _, s in parts], axis=1)
    for cell, cell_tags, cell_steps in zip(cells, tags, steps):
        outs = [dyn.classify(F, Quaternion(*s), cell) for s in seeds_]
        assert cell_tags.tolist() == [o.kind for o in outs], cell
        assert cell_steps.tolist() == [o.steps for o in outs], cell
