import math

import numpy as np
import pytest

from qjulia import dynamics as dyn
from qjulia import field as fld
from qjulia import render as rnd
from qjulia.dynamics import ClassifierMethod, ClassifierParams


NEWTON = dyn.newton_transform(dyn.QPolynomial.from_coeffs([-1.0, 0.0, 0.0, 1.0]))
SQUARE = dyn.quadratic_map(1.0, 0.0)
ET = ClassifierParams(ClassifierMethod.ESCAPE_TIME, 2.0, 24)
CO = ClassifierParams(ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 25)

BOX33 = fld.Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (33, 33, 33))
EMB = fld.DEFAULT_EMBEDDING

HEADLIGHT = rnd.LightingParams(rnd.LightModel.SIMPLE_LAMBERTIAN, (0.0, 0.0, 1.0))


@pytest.fixture
def classify_lanes(monkeypatch):
    """The lane count of every dyn.classify_cells call, in call order."""
    lanes = []
    classify = dyn.classify_cells

    def counting(F, cells, hr, hm, hn, hp):
        lanes.append(hr.size)
        return classify(F, cells, hr, hm, hn, hp)

    monkeypatch.setattr(dyn, "classify_cells", counting)
    return lanes


def test_camera_validation():
    with pytest.raises(ValueError):
        rnd.Camera("z", (64, 64))
    with pytest.raises(ValueError):
        rnd.Camera("+z", (0, 64))
    assert rnd.Camera().view_axis == "+z"


def test_lighting_validation():
    with pytest.raises(ValueError):
        rnd.LightingParams(light_dir=(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        rnd.LightingParams(ambient=1.5)
    with pytest.raises(ValueError):
        rnd.LightingParams(shininess=0.5)
    d = rnd.normalize3((1.0, 2.0, 3.0))
    assert abs(math.sqrt(sum(c * c for c in d)) - 1.0) < 1e-12


def test_shade_examples():
    L = rnd.normalize3((1.0, 2.0, 2.0))
    simple = rnd.LightingParams(rnd.LightModel.SIMPLE_LAMBERTIAN, L)
    assert rnd.shade(L, simple) == pytest.approx(1.0)
    lam = rnd.LightingParams(
        rnd.LightModel.LAMBERTIAN, (0.0, 0.0, 1.0), ambient=0.1, diffuse=0.9
    )
    assert rnd.shade((1.0, 0.0, 0.0), lam) == pytest.approx(0.1)
    mirror = rnd.LightingParams(
        rnd.LightModel.PHONG, (0.0, 0.0, 1.0), ambient=0.0, diffuse=0.0,
        specular=1.0, shininess=7.0,
    )
    assert rnd.shade((0.0, 0.0, 1.0), mirror) == pytest.approx(1.0)


def test_shade_always_in_unit_interval():
    light = rnd.LightingParams(
        rnd.LightModel.PHONG, rnd.normalize3((0.3, -0.5, 0.8)),
        ambient=0.3, diffuse=1.0, specular=1.0, shininess=2.0,
    )
    for k in range(50):
        theta, phi = 0.13 * k, 0.37 * k
        n = (
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        )
        assert 0.0 <= rnd.shade(n, light) <= 1.0


def test_normal_flat_face():
    depth = np.zeros((4, 4))
    dm = rnd.DepthMap(
        np.ones((4, 4), dtype=bool), depth, np.zeros((4, 4, 4)),
        np.zeros((4, 4), dtype=np.uint32), du=1.0, dv=1.0,
    )
    assert rnd.estimate_normal(dm, 2, 2) == (0.0, 0.0, 1.0)


def test_normal_sloped_plane():
    cols = np.arange(5, dtype=np.float64)
    depth = np.tile(cols, (5, 1))
    dm = rnd.DepthMap(
        np.ones((5, 5), dtype=bool), depth, np.zeros((5, 5, 4)),
        np.zeros((5, 5), dtype=np.uint32), du=1.0, dv=1.0,
    )
    n = rnd.estimate_normal(dm, 2, 2)
    s = 1.0 / math.sqrt(2.0)
    assert n == pytest.approx((-s, 0.0, s))
    # silhouette column falls back to one-sided differences
    edge = rnd.estimate_normal(dm, 2, 0)
    assert edge == pytest.approx((-s, 0.0, s))


def test_all_miss_scene_black():
    shift = dyn.QRationalMap(dyn.QPolynomial.from_coeffs([1.0, 1.0]))
    params = ClassifierParams(ClassifierMethod.ESCAPE_TIME, 0.5, 24)
    cam = rnd.Camera("+z", (16, 16))
    dm = rnd.cast_rays(shift, BOX33, EMB, params, cam)
    assert not dm.hit.any()
    img = rnd.render_image(shift, BOX33, EMB, params, cam, HEADLIGHT)
    assert img.shape == (16, 16)
    assert not img.any()


@pytest.mark.parametrize("view_axis", ["+z", "-x"])
def test_fully_plotted_scene_hits_front_face(view_axis, classify_lanes):
    ident = dyn.QRationalMap(dyn.QPolynomial.from_coeffs([0.0, 1.0]))
    params = ClassifierParams(ClassifierMethod.CUTOFF_RATE, 1e-3, 10, 1)
    cam = rnd.Camera(view_axis, (8, 8))
    dm = rnd.cast_rays(ident, BOX33, EMB, params, cam)
    # one march layer and the final sample: no bracket, so no bisection
    assert classify_lanes == [64, 64]
    assert dm.hit.all()
    assert (dm.depth == 0.0).all()
    # entrance-face hits are +0.0 on negative view axes too
    assert not np.signbit(dm.depth).any()
    img = rnd.render_image(ident, BOX33, EMB, params, cam, HEADLIGHT)
    assert (img == 255).all()


def test_sphere_silhouette_and_depth():
    cam = rnd.Camera("+z", (64, 64))
    dm = rnd.cast_rays(SQUARE, BOX33, EMB, ET, cam)
    du = 4.0 / 64
    expected = 0
    for row in range(64):
        for col in range(64):
            x = -2.0 + (col + 0.5) * du
            y = -2.0 + ((63 - row) + 0.5) * du
            expected += x * x + y * y < 1.0
    assert int(dm.hit.sum()) == expected
    assert abs(expected / 4096.0 - math.pi / 16.0) < 0.05 * (math.pi / 16.0)
    # center ray enters the unit ball one unit into the region
    assert abs(dm.depth[32, 32] - 1.0) < 0.01
    hits = dm.depth[dm.hit]
    assert (hits >= 0.0).all() and (hits <= 4.0).all()
    n = rnd.estimate_normal(dm, 32, 32)
    assert math.dist(n, (0.0, 0.0, 1.0)) < 0.05


@pytest.mark.parametrize("k_refine", [0, 20])
def test_cast_rays_matches_scalar_bisection_exactly(k_refine):
    cam = rnd.Camera("+z", (64, 64))
    dm = rnd.cast_rays(SQUARE, BOX33, EMB, ET, cam, k_refine=k_refine)
    row, col = 32, 32
    du = 4.0 / 64
    u = -2.0 + (col + 0.5) * du
    v = -2.0 + ((63 - row) + 0.5) * du
    dz = BOX33.step(2)
    prev = None
    bracket = None
    for j in range(33):
        t = -2.0 + j * dz
        s = fld.embed_coords(EMB, u, v, t)
        plotted = dyn.is_plotted(dyn.classify(SQUARE, s, ET), ET)
        if plotted:
            bracket = (prev, s)
            break
        prev = s
    refined = fld.refine_bisect(SQUARE, bracket[0], bracket[1], ET, k_refine)
    assert dm.depth[row, col] == (refined.n - (-2.0)) * 1
    assert tuple(dm.points[row, col]) == tuple(refined)


def test_render_deterministic_across_workers():
    light = rnd.LightingParams(rnd.LightModel.PHONG, rnd.normalize3((0.3, 0.4, 0.9)))
    for size, workers in (((32, 32), 4), ((24, 21), 3)):
        cam = rnd.Camera("+z", size)
        base = rnd.render_image(NEWTON, BOX33, EMB, CO, cam, light, workers=1)
        again = rnd.render_image(NEWTON, BOX33, EMB, CO, cam, light, workers=1)
        multi = rnd.render_image(NEWTON, BOX33, EMB, CO, cam, light, workers=workers)
        assert np.array_equal(base, again)
        assert np.array_equal(base, multi)
        assert base.any()


def _depth_map_bytes(dm):
    arrays = (dm.hit, dm.depth, dm.points, dm.steps)
    return tuple(a.tobytes() for a in arrays) + (dm.du, dm.dv)


@pytest.mark.parametrize("view_axis", ["+z", "-x"])
def test_cast_rays_chunks_split_rows(view_axis, monkeypatch):
    # 24x21 = 504 rays in one default chunk; 37-lane march chunks start and
    # end mid-row and leave a ragged last chunk of 23 lanes.  The -x hits
    # split into refine chunks of 37, 37 and 4; the +z hits fit in one.
    cam = rnd.Camera(view_axis, (24, 21))
    base = _depth_map_bytes(rnd.cast_rays(NEWTON, BOX33, EMB, CO, cam, k_refine=5))
    monkeypatch.setattr(fld, "_CHUNK", 37)
    for workers in (1, 3):
        dm = rnd.cast_rays(NEWTON, BOX33, EMB, CO, cam, k_refine=5, workers=workers)
        assert _depth_map_bytes(dm) == base
    assert int(dm.hit.sum()) == {"+z": 23, "-x": 78}[view_axis]


@pytest.mark.parametrize("view_axis", ["+z", "-x"])
def test_cast_rays_lanes_are_march_bisection_and_final_sample(
    view_axis, monkeypatch, classify_lanes
):
    # the work behind perfbench's render.march_lanes and bisect_lanes, for
    # any worker count or partition.  Lanes, not calls: batching may change
    # the number of calls but not the samples taken.
    cam = rnd.Camera(view_axis, (24, 21))
    axis = "xyz".index(view_axis[1])
    for chunk in (fld._CHUNK, 37):
        monkeypatch.setattr(fld, "_CHUNK", chunk)
        for workers in (1, 3):
            classify_lanes.clear()
            dm = rnd.cast_rays(NEWTON, BOX33, EMB, CO, cam, k_refine=5, workers=workers)
            # each hit's first plotted layer, read as perfbench's march_counts
            depth = dm.depth[dm.hit]
            first = np.where(depth == 0.0, 0, np.floor(depth / BOX33.step(axis)) + 1)
            misses = dm.hit.size - depth.size
            march = misses * BOX33.resolution[axis] + int((first + 1).sum())
            bisection = int((first > 0).sum()) * 5
            assert sum(classify_lanes) == march + bisection + depth.size
    # +z has entrance-face hits, which must stay out of the bisection
    assert (first == 0).any() == (view_axis == "+z")
    assert (first > 0).any()


@pytest.mark.parametrize("view_axis", ["+z", "-x"])
def test_bisection_stops_at_float64_resolution(view_axis, classify_lanes):
    # once every bracket's midpoint is one of its ends, a further round
    # would re-sample an end and move nothing: kRefine 10**8 gives the
    # bytes of 1200 and stops long before either
    cam = rnd.Camera(view_axis, (16, 16))
    runs = {}
    for k_refine in (0, 1200, 10**8):
        classify_lanes.clear()
        dm = rnd.cast_rays(NEWTON, BOX33, EMB, CO, cam, k_refine=k_refine)
        runs[k_refine] = (_depth_map_bytes(dm), len(classify_lanes))
    assert runs[10**8] == runs[1200]
    rounds = runs[1200][1] - runs[0][1]
    assert 0 < rounds < 1200


def test_view_axis_symmetry_hit_counts():
    # the plotted set is rotationally symmetric about the real axis, so
    # views down +y and +z see silhouettes of equal area up to sampling
    cam_z = rnd.Camera("+z", (48, 48))
    cam_y = rnd.Camera("+y", (48, 48))
    hz = int(rnd.cast_rays(NEWTON, BOX33, EMB, CO, cam_z).hit.sum())
    hy = int(rnd.cast_rays(NEWTON, BOX33, EMB, CO, cam_y).hit.sum())
    assert hz > 0 and hy > 0
    assert abs(hz - hy) <= 0.02 * max(hz, hy)


def test_steps_palette_shape():
    cam = rnd.Camera("+z", (16, 16))
    img = rnd.render_image(NEWTON, BOX33, EMB, CO, cam, HEADLIGHT, palette="steps")
    assert img.shape == (16, 16, 3)
    with pytest.raises(ValueError):
        rnd.render_image(NEWTON, BOX33, EMB, CO, cam, HEADLIGHT, palette="rainbow")


def test_write_ppm(tmp_path):
    img = np.zeros((2, 3), dtype=np.uint8)
    img[0, 0] = 7
    path = tmp_path / "img.ppm"
    rnd.write_ppm(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P6\n3 2\n255\n")
    body = data[len(b"P6\n3 2\n255\n"):]
    assert len(body) == 18
    assert body[:3] == bytes([7, 7, 7])
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    rnd.write_ppm(tmp_path / "rgb.ppm", rgb)
    assert (tmp_path / "rgb.ppm").read_bytes().startswith(b"P6\n2 2\n255\n")
    with pytest.raises(ValueError):
        rnd.write_ppm(tmp_path / "bad.ppm", img.astype(np.uint16))
