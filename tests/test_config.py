import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import MALFORMED_JOBS
from hypothesis import example, given, settings, strategies as st

from qjulia.config import (
    ConfigError,
    RenderConfig,
    parse_config,
    parse_sweep,
    serialize_config,
)
from qjulia.dynamics import ClassifierMethod, ClassifierParams
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
    assert math.isclose(
        sum(c * c for c in cfg.lighting.light_dir), 1.0, rel_tol=1e-12
    )


def test_map_only_job_takes_the_classifier_defaults():
    cfg = parse_config('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}}')
    assert cfg.params == ClassifierParams()


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
    assert cfg.slice_window == (-1.5, 1.5, -1.0, 1.0)
    assert cfg.slice_resolution == (33, 21)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("text", [
    MINIMAL,
    FULL,
    # every bundled render job, interweaving_basins (the rational kind) first
    *(p.read_text() for p in sorted(CONFIGS.glob("*.json")) if p.name != "sweep_newton.json"),
    json.dumps(json.loads((CONFIGS / "sweep_newton.json").read_text())["base"]),
])
def test_round_trip(text):
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


# every bundled render job and the sweep's base, as written and in full
# (serialized, so that every key, the slice block's too, has a leaf)
_WRITTEN = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
_WRITTEN = [job.get("base", job) for job in _WRITTEN]
FUZZ_JOBS = _WRITTEN + [json.loads(serialize_config(parse_config(json.dumps(j)))) for j in _WRITTEN]
FUZZ_VALUES = [10**400, -(10**400), 2**62, 1e308, -1e308, 0, -1, "x", [0], {}, None]


def _leaves(data, path=()):
    """The path of every number, string and null in a JSON value."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _replaced(job: dict, path: tuple, value) -> dict:
    job = json.loads(json.dumps(job))
    *parents, last = path
    node = job
    for key in parents:
        node = node[key]
    node[last] = value
    return job


_SITES = [(job, path) for job in FUZZ_JOBS for path in _leaves(job)]
_NEWTON = json.loads((CONFIGS / "newton_cubic_cutoff.json").read_text())


@given(st.builds(lambda site, value: _replaced(*site, value), st.sampled_from(_SITES),
                 st.sampled_from(FUZZ_VALUES)))
@example({**_NEWTON, "region": {"min": [-1e308] * 3, "max": [1e308] * 3}})
@example({**_NEWTON, "region": {"resolution": [10**400, 3, 3]}})
@example({**_NEWTON, "slice": {"window": [-1e308, 1e308, -1, 1]}})
@example({**_NEWTON, "slice": {"resolution": [10**400, 5]}})
@example({**_NEWTON, "region": {"resolution": [2**62, 2, 2]}})
@settings(derandomize=True, deadline=None, max_examples=300)
def test_mutated_job_is_refused_or_round_trips_with_finite_grids(job):
    try:
        cfg = parse_config(json.dumps(job))
    except ConfigError:
        return
    assert parse_config(serialize_config(cfg)) == cfg
    xmin, xmax, ymin, ymax = cfg.slice_window
    nx, ny = cfg.slice_resolution
    steps = [cfg.region.step(axis) for axis in range(3)]
    steps += [(xmax - xmin) / (nx - 1), (ymax - ymin) / (ny - 1)]
    assert all(0.0 < step < math.inf for step in steps)


def test_absent_section_key_keeps_its_default():
    cfg = parse_config(json.dumps({**json.loads(MINIMAL), "region": {"resolution": [9, 9, 9]}}))
    assert cfg.region == replace(RenderConfig.region, resolution=(9, 9, 9))
    # the slice follows the region it defaults to
    assert cfg.slice_window == (-2.0, 2.0, -2.0, 2.0)
    assert cfg.slice_resolution == (9, 9)


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
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "maxIter": 4294967296}', "maxIter"),
        ('{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "lighting": {"model": ["phong"]}}', "lighting.model"),
        *((json.dumps({**json.loads(MINIMAL), **entries}), key) for entries, key in MALFORMED_JOBS),
    ],
)
def test_validation_names_offending_key(text, needle):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert needle in str(exc.value)


def test_max_iter_may_fill_the_uint32_step_range():
    text = '{"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}, "maxIter": 4294967295}'
    assert parse_config(text).params.max_iter == 2**32 - 1


def test_readme_schema_parses():
    # the documented schema must stay a job the parser accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    schema = readme.split("## Config schema", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", schema, re.S).group(1)
    parse_config(re.sub(r"//.*", "", block))


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
        ('{"radii": [1.0], "iterationCounts": [4294967296], "base": {"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}}}', "iterationCounts"),
        ('{"radii": [1.0], "iterationCounts": [5]}', "base"),
        ('{"radii": [1.0], "iterationCounts": [5], "base": {"map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]}}, "extra": 1}', "extra"),
        ("[]", "top level"),
    ],
)
def test_sweep_validation(text, needle):
    with pytest.raises(ConfigError) as exc:
        parse_sweep(text)
    assert needle in str(exc.value)
