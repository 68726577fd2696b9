"""JSON job descriptions for the CLI.

A render job is one JSON object; quaternions are written as 4-element
[r, m, n, p] arrays (bare numbers are accepted on input and read as
real), polynomials as ascending-degree coefficient arrays.  parse and
serialize round-trip: parse(serialize(cfg)) == cfg.

Unknown or malformed keys raise ConfigError with the offending key in
the message rather than being ignored; null is malformed for every key.
Each shape check has one reader: _array and _tuple_of for arrays,
_choice for a string from a fixed set, _build for a constructor's
ValueError.  Each key is named once, in a table that the parser and
config_data both follow: _MAP_KINDS (map kinds and their builders),
_PARAMS (the classifier), _SECTIONS, _TOP (RenderConfig's scalars) and
_SLICE.  A default, and any bound a dataclass checks, is written once,
in that dataclass; an absent key, inside a section too, keeps the
default.  The slice block defaults to the region's x/y window and
resolution, and every command checks it, and the grid it makes, with
oracle2d's rules before any work.  output_path, the outputPath reader,
also checks the CLI's --out and --dump-field.

A job says what to compute, not how: the worker count is the CLI's
--workers option, and a "workers" key is an unknown key.

serialize_config, which no command calls, is the writing half of the
job format's round-trip.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Any, Optional

from qjulia import dynamics, oracle2d
from qjulia.dynamics import ClassifierMethod, ClassifierParams, QRationalMap
from qjulia.field import Embedding, Region3
from qjulia.quat import Quaternion
from qjulia.render import _PALETTES, Camera, LightModel, LightingParams, normalize3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class MapSpec:
    """Declarative map description; build() yields the iterable map."""

    kind: str
    p: Optional[Quaternion] = None
    q: Optional[Quaternion] = None
    numerator: Optional[tuple[Quaternion, ...]] = None
    denominator: Optional[tuple[Quaternion, ...]] = None
    polynomial: Optional[tuple[float, ...]] = None

    def build(self) -> QRationalMap:
        make, keys = _MAP_KINDS[self.kind]
        return make(*(getattr(self, k) for k in keys))


@dataclass(frozen=True)
class RenderConfig:
    map: MapSpec
    params: ClassifierParams = ClassifierParams()
    region: Region3 = Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (65, 65, 65))
    embedding: Embedding = Embedding()
    camera: Camera = Camera()
    lighting: LightingParams = LightingParams(light_dir=normalize3((0.35, 0.45, 0.9)))
    k_refine: int = 20
    palette: str = "gray"
    output_path: str = "out.ppm"
    slice_window: Optional[tuple[float, float, float, float]] = None
    slice_resolution: Optional[tuple[int, int]] = None

    def __post_init__(self):
        # the slice defaults to the region's x/y window and resolution
        r = self.region
        if self.slice_window is None:
            window = (r.min[0], r.max[0], r.min[1], r.max[1])
            object.__setattr__(self, "slice_window", window)
        if self.slice_resolution is None:
            object.__setattr__(self, "slice_resolution", r.resolution[:2])


@dataclass(frozen=True)
class SweepSpec:
    radii: tuple[float, ...]
    iteration_counts: tuple[int, ...]
    base: RenderConfig

    def cells(self) -> list[tuple[float, int]]:
        """Row-major (radius, maxIter) cells, radii outermost."""
        return [(r, it) for r in self.radii for it in self.iteration_counts]

    def cell_params(self, radius: float, max_iter: int) -> ClassifierParams:
        # cutoff_count may not exceed max_iter, so clamp it per cell
        cc = min(self.base.params.cutoff_count, max_iter)
        return replace(
            self.base.params, radius=radius, max_iter=max_iter, cutoff_count=cc
        )


def _need(data: dict, key: str, ctx: str = ""):
    if key not in data:
        raise ConfigError(f"missing key {ctx}{key}")
    return data[key]


def _number(v: Any, key: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key}: expected a number")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    # json.loads accepts NaN, Infinity and 1e999, which no setting can use
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number")
    return x


def _integer(v: Any, key: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key}: expected an integer")
    return v


def _count(v: Any, key: str) -> int:
    n = _integer(v, key)
    if n < 0:
        raise ConfigError(f"{key}: must be non-negative")
    return n


def output_path(v: Any, key: str) -> str:
    """v, if it is a string whose last path component names a file: not
    empty, "." or ".."."""
    if not isinstance(v, str) or os.path.basename(v) in ("", ".", ".."):
        raise ConfigError(f"{key}: expected a path ending in a file name")
    return v


def _choice(v: Any, key: str, options) -> str:
    """v, if it is one of the strings in options (a dict's keys will do)."""
    # the string test comes first: an unhashable v cannot be looked up
    if not isinstance(v, str) or v not in options:
        *most, last = (repr(o) for o in options)
        raise ConfigError(f"{key}: expected {', '.join(most)} or {last}, got {v!r}")
    return v


def _quaternion(v: Any, key: str) -> Quaternion:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return Quaternion(_number(v, key), 0.0, 0.0, 0.0)
    if isinstance(v, list) and len(v) == 4:
        return Quaternion(*(_number(c, key) for c in v))
    raise ConfigError(f"{key}: expected a number or [r, m, n, p]")


def _tuple_of(read, length: int, items: str):
    """Reader of an array of length items, each read by read()."""

    def reader(v: Any, key: str) -> tuple:
        if not isinstance(v, list) or len(v) != length:
            raise ConfigError(f"{key}: expected an array of {length} {items}")
        return tuple(read(c, key) for c in v)

    return reader


def _array(v: Any, key: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key}: expected a non-empty array")
    return v


def _array_of(read):
    """Reader of a non-empty array whose items read() reads."""
    return lambda v, key: tuple(read(c, key) for c in _array(v, key))


def _check_keys(data: dict, allowed, ctx: str) -> None:
    for k in data:
        if k not in allowed:
            raise ConfigError(f"unknown key {ctx}{k}")


def _build(name: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported under name."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _checked(read, check):
    """Reader of what read() reads, passed through check() under its key."""
    return lambda v, key: _build(key, check, read(v, key))


def _enum(kind):
    """Reader of one of kind's values, as its member."""
    values = [m.value for m in kind]
    return lambda v, key: kind(_choice(v, key, values))


def _as_is(v: Any, key: str) -> Any:
    """v itself, for a value the dataclass it fills checks."""
    return v


# a radius or an iteration count alone, as ClassifierParams bounds it
_radius = _checked(_number, lambda r: ClassifierParams(radius=r).radius)
_iterations = _checked(_integer, lambda n: ClassifierParams(max_iter=n).max_iter)

# each map kind's builder and its keys, which are also MapSpec's fields
# and the builder's arguments in order, with their readers
_MAP_KINDS = {
    "quadratic": (dynamics.quadratic_map, {"p": _quaternion, "q": _quaternion}),
    "rational": (
        dynamics.rational_map,
        {"numerator": _array_of(_quaternion), "denominator": _array_of(_quaternion)},
    ),
    "newton": (
        lambda coeffs: dynamics.newton_transform(dynamics.QPolynomial.from_coeffs(coeffs)),
        {"polynomial": _array_of(_number)},
    ),
}

# the classifier keys, each with the ClassifierParams field it sets
_PARAMS = {
    "method": ("method", _enum(ClassifierMethod)),
    "radius": ("radius", _radius),
    "maxIter": ("max_iter", _iterations),
    "cutoffCount": ("cutoff_count", _integer),
}

# RenderConfig's nested sections, each under its field's name: their keys
# in written order, each with the dataclass field it sets and its reader
_SECTIONS = {
    "region": {
        "min": ("min", _tuple_of(_number, 3, "numbers")),
        "max": ("max", _tuple_of(_number, 3, "numbers")),
        "resolution": ("resolution", _tuple_of(_integer, 3, "integers")),
    },
    "embedding": {
        "axes": (
            "axes",
            _checked(_tuple_of(_as_is, 3, "component names"), lambda a: Embedding(a).axes),
        ),
        "fixedValue": ("fixed_value", _number),
    },
    "camera": {
        "viewAxis": ("view_axis", _as_is),
        "imageSize": ("image_size", _tuple_of(_integer, 2, "integers")),
    },
    "lighting": {
        "model": ("model", _enum(LightModel)),
        "lightDir": ("light_dir", _checked(_tuple_of(_number, 3, "numbers"), normalize3)),
        "ambient": ("ambient", _number),
        "diffuse": ("diffuse", _number),
        "specular": ("specular", _number),
        "shininess": ("shininess", _number),
    },
}
# RenderConfig's own scalars, at the top level
_TOP = {
    "kRefine": ("k_refine", _count),
    "palette": ("palette", lambda v, key: _choice(v, key, _PALETTES)),
    "outputPath": ("output_path", output_path),
}
# the slice block sets RenderConfig's own fields, with oracle2d's bounds
_SLICE = {
    "window": (
        "slice_window",
        _checked(_tuple_of(_number, 4, "numbers"), oracle2d.checked_window),
    ),
    "resolution": (
        "slice_resolution",
        _checked(_tuple_of(_integer, 2, "integers"), oracle2d.checked_resolution),
    ),
}

_TOP_KEYS = {"map", *_PARAMS, *_SECTIONS, *_TOP, "slice"}


def _read_fields(data: dict, keys: dict, ctx: str = "") -> dict:
    """The fields that the keys present in data set; an absent key sets
    none, so its field keeps its default."""
    return {
        field: read(data[key], f"{ctx}{key}")
        for key, (field, read) in keys.items()
        if key in data
    }


def _read_section(data: dict, name: str, keys: dict) -> dict:
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object")
    _check_keys(section, keys, f"{name}.")
    return _read_fields(section, keys, f"{name}.")


def _parse_map(data: Any) -> MapSpec:
    if not isinstance(data, dict):
        raise ConfigError("map: expected an object")
    kind = _choice(_need(data, "kind", "map."), "map.kind", _MAP_KINDS)
    _, readers = _MAP_KINDS[kind]
    _check_keys(data, {"kind", *readers}, "map.")
    fields = {k: read(_need(data, k, "map."), f"map.{k}") for k, read in readers.items()}
    spec = MapSpec(kind, **fields)
    _build("map", spec.build)
    return spec


def parse_config_data(data: Any) -> RenderConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(data, _TOP_KEYS, "")
    map_spec = _parse_map(_need(data, "map"))
    # with radius and maxIter bounded as read, only cutoff_count <= max_iter is left
    params = _build("cutoffCount", ClassifierParams, **_read_fields(data, _PARAMS))
    sections = {}
    for name, keys in _SECTIONS.items():
        fields = _read_section(data, name, keys)
        sections[name] = _build(name, replace, getattr(RenderConfig, name), **fields)
    cfg = RenderConfig(
        map=map_spec,
        params=params,
        **sections,
        **_read_fields(data, _TOP),
        **_read_section(data, "slice", _SLICE),
    )
    # render_slice2d's rule checks the grid that the slice keys make together
    _build("slice", oracle2d.grid_steps, cfg.slice_window, cfg.slice_resolution)
    return cfg


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def parse_config(text: str) -> RenderConfig:
    return parse_config_data(_load_json(text))


def _json(v):
    """v as JSON data: each tuple in it, Quaternions included, a list and
    each enum its value."""
    if isinstance(v, tuple):
        return [_json(c) for c in v]
    return v.value if isinstance(v, enum.Enum) else v


def _fields_json(obj, keys: dict) -> dict:
    return {key: _json(getattr(obj, field)) for key, (field, _) in keys.items()}


def config_data(cfg: RenderConfig) -> dict:
    spec = cfg.map
    _, map_keys = _MAP_KINDS[spec.kind]
    return {
        "map": {"kind": spec.kind, **{k: _json(getattr(spec, k)) for k in map_keys}},
        **_fields_json(cfg.params, _PARAMS),
        **{name: _fields_json(getattr(cfg, name), keys) for name, keys in _SECTIONS.items()},
        **_fields_json(cfg, _TOP),
        "slice": _fields_json(cfg, _SLICE),
    }


def serialize_config(cfg: RenderConfig) -> str:
    return json.dumps(config_data(cfg), indent=2) + "\n"


def parse_sweep(text: str) -> SweepSpec:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(data, {"radii", "iterationCounts", "base"}, "")
    radii = _array_of(_radius)(data.get("radii"), "radii")
    counts = _array_of(_iterations)(data.get("iterationCounts"), "iterationCounts")
    return SweepSpec(radii, counts, parse_config_data(_need(data, "base")))
