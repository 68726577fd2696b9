import math

import pytest

from qjulia.config import (
    ConfigError,
    parse_config,
    parse_sweep,
    serialize_config,
)
from qjulia.dynamics import ClassifierMethod
from qjulia.quat import Quaternion

MINIMAL = '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "method": "cutoff"}'

FULL = """
{
  "map": {"kind": "quadratic", "p": [1, 0, 0, 0], "q": [-0.2, 0.8, 0, 0]},
  "method": "escape",
  "radius": 3.5,
  "maxIter": 40,
  "cutoffCount": 7,
  "region": {"min": [-1, -1, -1], "max": [1, 1, 1], "resolution": [17, 17, 9]},
  "embedding": {"axes": ["m", "n", "p"], "fixedValue": 0.25},
  "camera": {"viewAxis": "-y", "imageSize": [64, 48]},
  "lighting": {"model": "lambertian", "lightDir": [0, 0, 1], "ambient": 0.2,
               "diffuse": 0.5, "specular": 0.1, "shininess": 4},
  "kRefine": 12,
  "palette": "steps",
  "workers": 3,
  "outputPath": "full.ppm",
  "slice": {"window": [-1.5, 1.5, -1, 1], "resolution": [33, 21]}
}
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.map.kind == "newton"
    assert cfg.map.polynomial == (-1.0, 0.0, 0.0, 1.0)
    assert cfg.params.method is ClassifierMethod.CUTOFF_RATE
    assert cfg.params.radius == 1e-3
    assert cfg.params.max_iter == 50
    assert cfg.params.cutoff_count == 25
    assert cfg.region.min == (-2.0, -2.0, -2.0)
    assert cfg.region.max == (2.0, 2.0, 2.0)
    assert cfg.region.resolution == (65, 65, 65)
    assert cfg.embedding.axes == ("r", "m", "n")
    assert cfg.camera.view_axis == "+z"
    assert cfg.camera.image_size == (128, 128)
    assert cfg.k_refine == 20
    assert cfg.palette == "gray"
    assert cfg.workers is None
    assert math.isclose(
        sum(c * c for c in cfg.lighting.light_dir), 1.0, rel_tol=1e-12
    )


def test_escape_default_radius():
    cfg = parse_config('{"map": {"kind": "quadratic", "p": 1, "q": 0}, "method": "escape"}')
    assert cfg.params.radius == 2.0
    assert cfg.params.max_iter == 50


def test_full_config_parses():
    cfg = parse_config(FULL)
    assert cfg.map.p == Quaternion(1.0, 0.0, 0.0, 0.0)
    assert cfg.map.q == Quaternion(-0.2, 0.8, 0.0, 0.0)
    assert cfg.params.method is ClassifierMethod.ESCAPE_TIME
    assert cfg.params.radius == 3.5
    assert cfg.params.cutoff_count == 7
    assert cfg.region.resolution == (17, 17, 9)
    assert cfg.embedding.fixed_value == 0.25
    assert cfg.embedding.fixed_component == "r"
    assert cfg.camera.view_axis == "-y"
    assert cfg.camera.image_size == (64, 48)
    assert cfg.lighting.ambient == 0.2
    assert cfg.k_refine == 12
    assert cfg.palette == "steps"
    assert cfg.workers == 3
    assert cfg.slice_window == (-1.5, 1.5, -1.0, 1.0)
    assert cfg.slice_resolution == (33, 21)


@pytest.mark.parametrize("text", [MINIMAL, FULL])
def test_round_trip(text):
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


def test_scalar_and_array_quaternions_agree():
    a = parse_config('{"map": {"kind": "quadratic", "p": 2, "q": -1}}')
    b = parse_config('{"map": {"kind": "quadratic", "p": [2, 0, 0, 0], "q": [-1, 0, 0, 0]}}')
    assert a.map == b.map


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "radius": -1}', "radius"),
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "maxIter": 0}', "maxIter"),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "maxIter": 10, "cutoffCount": 11}',
            "cutoffCount",
        ),
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "radiuss": 1}', "radiuss"),
        ('{"map": {"kind": "warp"}}', "map.kind"),
        ('{"map": {"kind": "quadratic", "p": [1, 2], "q": 0}}', "map.p"),
        ('{"map": {"kind": "rational", "numerator": [], "denominator": [1]}}', "map.numerator"),
        ('{"map": {"kind": "newton", "polynomial": [1, 0]}}', "map"),
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "method": "magic"}', "method"),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "region": {"min": [0,0,0], "max": [0,1,1], "resolution": [5,5,5]}}',
            "region",
        ),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "embedding": {"axes": ["r", "r", "m"]}}',
            "embedding.axes",
        ),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "camera": {"viewAxis": "diag"}}',
            "camera",
        ),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "lighting": {"lightDir": [0, 0, 0]}}',
            "lighting.lightDir",
        ),
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "palette": "neon"}', "palette"),
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "workers": 0}', "workers"),
        ('[]', "object"),
        ('{"method": "cutoff"}', "map"),
        # json.loads accepts NaN and Infinity; the parser must not
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, NaN]}}', "map.polynomial"),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "lighting": {"lightDir": [NaN, 0, 1]}}',
            "lighting.lightDir",
        ),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "embedding": {"fixedValue": NaN}}',
            "embedding.fixedValue",
        ),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "region": {"min": [-2,-2,-2], "max": [2,Infinity,2], "resolution": [5,5,5]}}',
            "region.max",
        ),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "lighting": {"shininess": NaN}}',
            "lighting.shininess",
        ),
        ('{"map": {"kind": "quadratic", "p": 1, "q": NaN}}', "map.q"),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "camera": {"imageSize": [64]}}',
            "camera.imageSize",
        ),
        (
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "slice": {"resolution": [1.5, 2]}}',
            "slice.resolution",
        ),
        pytest.param(
            '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "radius": 1' + "0" * 400 + "}",
            "radius",
            id="radius-integer-beyond-float-range",
        ),
    ],
)
def test_validation_names_offending_key(text, needle):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert needle in str(exc.value)


def test_invalid_json_is_config_error():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")


def test_newton_map_builds_transform():
    cfg = parse_config(MINIMAL)
    F = cfg.map.build()
    assert [c.r for c in F.numerator.coeffs] == [1.0, 0.0, 0.0, 2.0]
    assert [c.r for c in F.denominator.coeffs] == [0.0, 0.0, 3.0]


SWEEP = """
{
  "radii": [0.8, 4.0],
  "iterationCounts": [5, 24],
  "base": {"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "method": "escape"}
}
"""


def test_sweep_parse_and_cell_order():
    spec = parse_sweep(SWEEP)
    assert spec.radii == (0.8, 4.0)
    assert spec.iteration_counts == (5, 24)
    assert spec.cells() == [(0.8, 5), (0.8, 24), (4.0, 5), (4.0, 24)]


def test_sweep_cell_params_clamp_cutoff_count():
    spec = parse_sweep(SWEEP)
    assert spec.base.params.cutoff_count == 25
    cell = spec.cell_params(0.8, 5)
    assert cell.radius == 0.8
    assert cell.max_iter == 5
    assert cell.cutoff_count == 5
    assert spec.cell_params(4.0, 24).cutoff_count == 24


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"radii": [], "iterationCounts": [5], "base": {"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}}}', "radii"),
        ('{"radii": [1.0], "iterationCounts": [0], "base": {"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}}}', "iterationCounts"),
        ('{"radii": [1.0], "iterationCounts": [5]}', "base"),
        ('{"radii": [1.0], "iterationCounts": [5], "base": {"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}}, "extra": 1}', "extra"),
    ],
)
def test_sweep_validation(text, needle):
    with pytest.raises(ConfigError) as exc:
        parse_sweep(text)
    assert needle in str(exc.value)
