import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import coeff_parts, nonzero_parts, partitions, radii_1e6_to_1e3, seed_parts
from hypothesis import given, settings, strategies as st

from qjulia import dynamics as dyn
from qjulia import oracle2d as orc
from qjulia.cli import _complex_section
from qjulia.config import parse_config
from qjulia.dynamics import ClassifierMethod, ClassifierParams, OutcomeKind
from qjulia.oracle2d import Complex
from qjulia.quat import Quaternion


NEWTON_C = orc.cmap([1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 3.0])
SQUARE_C = orc.cmap([0.0, 0.0, 1.0])

NEWTON_Q = dyn.newton_transform(dyn.QPolynomial.from_coeffs([-1.0, 0.0, 0.0, 1.0]))
SQUARE_Q = dyn.quadratic_map(1.0, 0.0)

ET2 = ClassifierParams(ClassifierMethod.ESCAPE_TIME, 2.0, 24)
CO = ClassifierParams(ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 25)
ET4 = ClassifierParams(ClassifierMethod.ESCAPE_TIME, 4.0, 24)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = [
    "newton_cubic_cutoff.json",
    "newton_cubic_escape.json",
    "quadratic_basilica.json",
    "interweaving_basins.json",
]

coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def test_classify2d_escape_example():
    out = orc.classify2d(SQUARE_C, Complex(2.0, 0.0), ET2)
    assert (out.kind, out.steps) == (OutcomeKind.ESCAPED, 1)


def test_classify2d_newton_root():
    one = Complex(1.0, 0.0)
    out = orc.classify2d(NEWTON_C, one, CO)
    assert out == orc.Outcome2d(OutcomeKind.CONVERGED, 1, one)


def test_classify2d_newton_other_root():
    seed = Complex(-0.5, 0.866025)
    out = orc.classify2d(NEWTON_C, seed, CO)
    assert out.kind is OutcomeKind.CONVERGED
    root = Complex(-0.5, math.sqrt(3.0) / 2.0)
    assert math.hypot(out.last.re - root.re, out.last.im - root.im) < 1e-3


def test_classify2d_pole():
    out = orc.classify2d(NEWTON_C, Complex(0.0, 0.0), CO)
    assert (out.kind, out.steps) == (OutcomeKind.POLE_HIT, 1)


@given(coords, coords)
@settings(max_examples=300)
def test_slice_matches_quaternion_path_bitwise(x, y):
    # same variant, same step count, and identical orbit values: the two
    # implementations mirror each other's floating-point evaluation order
    seed_c = Complex(x, y)
    seed_q = Quaternion(x, y, 0.0, 0.0)
    for F_c, F_q, params in [
        (NEWTON_C, NEWTON_Q, CO),
        (SQUARE_C, SQUARE_Q, ET2),
        (NEWTON_C, NEWTON_Q, ClassifierParams(ClassifierMethod.ESCAPE_TIME, 4.0, 24)),
    ]:
        a = orc.classify2d(F_c, seed_c, params)
        b = dyn.classify(F_q, seed_q, params)
        assert (a.kind, a.steps) == (b.kind, b.steps)
        if a.last is not None:
            assert a.last.re == b.last.r and a.last.im == b.last.m
            assert b.last.n == 0.0 and b.last.p == 0.0


@given(coords, coords)
@settings(max_examples=100)
def test_orbit_values_match_quaternion_path(x, y):
    h = Quaternion(x, y, 0.0, 0.0)
    for _ in range(20):
        try:
            x, y = orc._eval_cmap(NEWTON_C, x, y)
            h = dyn.eval_map(NEWTON_Q, h)
        except (orc.Pole2d, dyn.PoleError):
            return
        if not (math.isfinite(x) and math.isfinite(y)):
            return
        assert x == h.r and y == h.m
        assert h.n == 0.0 and h.p == 0.0


# 0 is the Newton pole; 1e200+1e200i gives a NaN norm; 1e155 overflows at
# once, and under z^2 1e100 leaves the ball at step 1 and overflows at step
# 2, so escape time reports step 1
EDGE_SEEDS = [
    (0.0, 0.0), (-0.0, -0.0), (-0.0, 1.0), (1e200, 1e200), (1e155, 0.0),
    (1e100, 0.0), (-1e100, 1e100),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("F, params", [
    (NEWTON_C, CO),
    (NEWTON_C, ET4),
    (SQUARE_C, ET2),
    (orc.cmap([-1.0, 0.0, 1.0]), ET2),
    (orc.cmap([0.5]), ET2),
    (orc.cmap([0.5]), CO),
    (orc.cmap([0.5], [2.0]), ET2),
    (orc.cmap([0.5], [2.0]), CO),
])
def test_classify2d_batch_matches_scalar(F, params):
    rng = np.random.default_rng(15)
    xs = np.concatenate([rng.uniform(-2.5, 2.5, 1500), [x for x, _ in EDGE_SEEDS]])
    ys = np.concatenate([rng.uniform(-2.5, 2.5, 1500), [y for _, y in EDGE_SEEDS]])
    tags, steps = orc._classify2d_batch(F, xs, ys, params)
    assert tags.dtype == np.uint8 and steps.dtype == np.uint32
    for x, y, tag, step in zip(xs.tolist(), ys.tolist(), tags, steps):
        want = orc.classify2d(F, Complex(x, y), params)
        assert (OutcomeKind(int(tag)), int(step)) == (want.kind, want.steps), (x, y)


@pytest.mark.parametrize("name", BUNDLED)
def test_render_slice2d_chunks_match_per_pixel_scalar(name, monkeypatch):
    # 29x23 = 667 seeds: 37-lane chunks start and end mid-row and leave a
    # ragged last chunk of 1 lane
    cfg = parse_config((CONFIGS / name).read_text())
    F = _complex_section(cfg.map.build())
    window = (-1.7, 2.1, -1.3, 1.9)
    nx, ny = 29, 23
    lanes = []
    batch = orc._classify2d_batch

    def spy(F, xs, ys, params):
        lanes.append(xs.size)
        return batch(F, xs, ys, params)

    monkeypatch.setattr(orc, "_CHUNK", 37)
    monkeypatch.setattr(orc, "_classify2d_batch", spy)
    bits = orc.render_slice2d(F, window, (nx, ny), cfg.params)
    assert max(lanes) <= 37 and sum(lanes) == nx * ny and lanes[-1] == 1
    dx = (window[1] - window[0]) / (nx - 1)
    dy = (window[3] - window[2]) / (ny - 1)
    outcomes = [
        [
            orc.classify2d(F, Complex(window[0] + ix * dx, window[2] + iy * dy), cfg.params)
            for ix in range(nx)
        ]
        for iy in range(ny)
    ]
    want = np.array([
        [orc._plotted2d_bits(out.kind, out.steps, cfg.params) for out in row]
        for row in outcomes
    ])
    assert bits.shape == (ny, nx)
    assert np.array_equal(bits, want)


def test_render_slice2d_default_width_matches_narrow_chunks(monkeypatch):
    # the bundled 257x257 window is 66,049 seeds: four full batches at the
    # default width and a ragged last one of 513
    cfg = parse_config((CONFIGS / "newton_cubic_cutoff.json").read_text())
    F = _complex_section(cfg.map.build())
    args = (F, cfg.slice_window, cfg.slice_resolution, cfg.params)
    total = cfg.slice_resolution[0] * cfg.slice_resolution[1]
    assert (orc._CHUNK, total % orc._CHUNK) == (16384, 513)
    lanes = []
    batch = orc._classify2d_batch

    def spy(F, xs, ys, params):
        lanes.append(xs.size)
        return batch(F, xs, ys, params)

    monkeypatch.setattr(orc, "_classify2d_batch", spy)
    wide = orc.render_slice2d(*args)
    assert lanes == [16384] * 4 + [513]
    monkeypatch.setattr(orc, "_CHUNK", 37)
    assert np.array_equal(orc.render_slice2d(*args), wide)


def test_render_slice2d_unit_disc():
    bits = orc.render_slice2d(SQUARE_C, (-2.0, 2.0, -2.0, 2.0), (65, 65), ET2)
    assert bits.shape == (65, 65)
    step = 4.0 / 64
    for iy in range(65):
        for ix in range(65):
            x = -2.0 + ix * step
            y = -2.0 + iy * step
            r2 = x * x + y * y
            if abs(r2 - 1.0) > 0.05:
                assert bits[iy, ix] == (r2 < 1.0)


def test_render_slice2d_all_escaping():
    shift = orc.cmap([10.0, 1.0])
    bits = orc.render_slice2d(shift, (-2.0, 2.0, -2.0, 2.0), (17, 17), ET2)
    assert not bits.any()


def test_render_slice2d_conjugation_symmetry():
    bits = orc.render_slice2d(NEWTON_C, (-2.0, 2.0, -2.0, 2.0), (33, 33), CO)
    assert np.array_equal(bits, bits[::-1, :])
    assert bits.any()


def test_window_validation():
    with pytest.raises(ValueError):
        orc.render_slice2d(SQUARE_C, (2.0, -2.0, -2.0, 2.0), (17, 17), ET2)
    with pytest.raises(ValueError):
        orc.render_slice2d(SQUARE_C, (-2.0, 2.0, -2.0, 2.0), (1, 17), ET2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("window, resolution", [
    # a finite x step whose far corner rounds beyond the float range
    ((0.0, sys.float_info.max, -1.0, 1.0), (4, 5)),
    # an x step that underflows to 0.0, so every column would sample x = 0
    ((0.0, 1e-320, -1.0, 1.0), (5000, 2)),
])
def test_render_slice2d_refuses_a_grid_it_cannot_sample(window, resolution, monkeypatch):
    def classify(*args):
        raise AssertionError("a seed was classified")

    monkeypatch.setattr(orc, "_classify2d_batch", classify)
    with pytest.raises(ValueError, match="grid step"):
        orc.render_slice2d(NEWTON_C, window, resolution, CO)


def test_write_pgm(tmp_path):
    bits = np.zeros((2, 3), dtype=bool)
    bits[0, 0] = True  # ymin row, so it lands on the bottom image row
    path = tmp_path / "out.pgm"
    orc.write_pgm(path, bits)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    payload = data[len(b"P5\n3 2\n255\n"):]
    assert len(payload) == 6
    assert payload == bytes([0, 0, 0, 255, 0, 0])


def test_oracle_shares_no_quaternion_code():
    # the cross-check is only independent if its arithmetic is its own:
    # nothing from qjulia.quat, qjulia.field (Region3's grid rule included)
    # or qjulia.render, only the record types from qjulia.dynamics, and no
    # import behind __import__ or importlib
    allowed = {
        ("qjulia.dynamics", "ClassifierMethod"),
        ("qjulia.dynamics", "ClassifierParams"),
        ("qjulia.dynamics", "OutcomeKind"),
    }
    imported = set()
    tree = ast.parse(Path(orc.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "qjulia", alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "qjulia." + module if module else "qjulia"
            if module.split(".")[0] == "qjulia":
                imported |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Name):
            assert node.id not in {"__import__", "importlib"}, node.id
    assert imported and imported <= allowed, imported - allowed


# Generated real maps, parameters and seeds for the classify2d /
# _classify2d_batch pair
gen_seeds = st.lists(st.tuples(seed_parts, seed_parts), min_size=1, max_size=40)
gen_params = st.builds(
    ClassifierParams, st.sampled_from(ClassifierMethod), radii_1e6_to_1e3, st.integers(1, 40)
)


def real_polys(max_degree):
    lower = st.lists(coeff_parts, max_size=max_degree)
    return st.builds(lambda cs, c: [*cs, c], lower, nonzero_parts)


gen_cmaps = st.builds(orc.cmap, real_polys(4), st.one_of(st.just([1.0]), real_polys(3)))


@given(gen_cmaps, gen_params, gen_seeds, st.data())
@settings(deadline=None, max_examples=150, derandomize=True)
def test_classify2d_batch_matches_scalar_on_generated_maps(F, params, seeds, data):
    cuts = data.draw(partitions(len(seeds)))
    xs, ys = (np.array(c) for c in zip(*seeds))
    parts = [
        orc._classify2d_batch(F, xs[lo:hi], ys[lo:hi], params)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    tags = np.concatenate([t for t, _ in parts])
    steps = np.concatenate([s for _, s in parts])
    outs = [orc.classify2d(F, Complex(x, y), params) for x, y in seeds]
    assert tags.tolist() == [o.kind for o in outs]
    assert steps.tolist() == [o.steps for o in outs]
