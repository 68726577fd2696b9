"""JSON job descriptions for the CLI.

A render job is one JSON object; quaternions are written as 4-element
[r, m, n, p] arrays (bare numbers are accepted on input and read as
real), polynomials as ascending-degree coefficient arrays.  parse and
serialize round-trip: parse(serialize(cfg)) == cfg.

Unknown or malformed keys raise ConfigError with the offending key in
the message rather than being ignored.  Each shape check has one
reader: _array for non-empty arrays, _section for nested objects and
their keys, _choice for a string from a fixed set, _build for a
constructor's ValueError.  _MAP_KINDS lists each map kind's keys and
their readers; _parse_map and _map_json both follow it.  A default is
written once, in the dataclass that declares it, and read from there.

A job says what to compute, not how: the worker count is the CLI's
--workers option, and a "workers" key is an unknown key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Any, Optional

from qjulia import dynamics
from qjulia.dynamics import ClassifierMethod, ClassifierParams, QRationalMap
from qjulia.field import Embedding, Region3
from qjulia.quat import Quaternion
from qjulia.render import _PALETTES, Camera, LightModel, LightingParams, normalize3


class ConfigError(ValueError):
    pass


DEFAULT_REGION = Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (65, 65, 65))
DEFAULT_RADIUS = {ClassifierMethod.ESCAPE_TIME: 2.0, ClassifierMethod.CUTOFF_RATE: 1e-3}
DEFAULT_MAX_ITER = 50
DEFAULT_LIGHT_DIR = normalize3((0.35, 0.45, 0.9))


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
        if self.kind == "quadratic":
            return dynamics.quadratic_map(self.p, self.q)
        if self.kind == "rational":
            return dynamics.rational_map(self.numerator, self.denominator)
        if self.kind == "newton":
            return dynamics.newton_transform(
                dynamics.QPolynomial.from_coeffs(self.polynomial)
            )
        raise ConfigError(f"map.kind: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class RenderConfig:
    map: MapSpec
    params: ClassifierParams
    region: Region3 = DEFAULT_REGION
    embedding: Embedding = Embedding()
    camera: Camera = Camera()
    lighting: LightingParams = LightingParams(light_dir=DEFAULT_LIGHT_DIR)
    k_refine: int = 20
    palette: str = "gray"
    output_path: str = "out.ppm"
    slice_window: Optional[tuple[float, float, float, float]] = None
    slice_resolution: Optional[tuple[int, int]] = None


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


def _iterations(v: Any, key: str) -> int:
    n = _integer(v, key)
    if not 1 <= n <= dynamics._MAX_ITER:
        raise ConfigError(f"{key}: must lie in [1, {dynamics._MAX_ITER}]")
    return n


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


def _vector(v: Any, key: str, length: int) -> tuple:
    if not isinstance(v, list) or len(v) != length:
        raise ConfigError(f"{key}: expected an array of {length} numbers")
    return tuple(_number(c, key) for c in v)


def _integers(v: Any, key: str, length: int) -> tuple:
    if not isinstance(v, list) or len(v) != length:
        raise ConfigError(f"{key}: expected an array of {length} integers")
    return tuple(_integer(c, key) for c in v)


def _array(v: Any, key: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key}: expected a non-empty array")
    return v


def _array_of(read):
    """Reader of a non-empty array whose items read() reads."""
    return lambda v, key: tuple(read(c, key) for c in _array(v, key))


def _check_keys(data: dict, allowed: set[str], ctx: str) -> None:
    for k in data:
        if k not in allowed:
            raise ConfigError(f"unknown key {ctx}{k}")


def _section(data: Any, name: str, allowed: set[str]) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: expected an object")
    _check_keys(data, allowed, f"{name}.")
    return data


def _build(name: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported under name."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# each map kind's keys, which are also MapSpec's fields, with their readers
_MAP_KINDS = {
    "quadratic": {"p": _quaternion, "q": _quaternion},
    "rational": {
        "numerator": _array_of(_quaternion),
        "denominator": _array_of(_quaternion),
    },
    "newton": {"polynomial": _array_of(_number)},
}


def _parse_map(data: Any) -> MapSpec:
    if not isinstance(data, dict):
        raise ConfigError("map: expected an object")
    kind = _choice(_need(data, "kind", "map."), "map.kind", _MAP_KINDS)
    readers = _MAP_KINDS[kind]
    _check_keys(data, {"kind", *readers}, "map.")
    fields = {k: read(_need(data, k, "map."), f"map.{k}") for k, read in readers.items()}
    spec = MapSpec(kind, **fields)
    _build("map", spec.build)
    return spec


def _parse_params(data: dict) -> ClassifierParams:
    methods = [m.value for m in ClassifierMethod]
    method = ClassifierMethod(_choice(data.get("method", "cutoff"), "method", methods))
    radius = _number(data.get("radius", DEFAULT_RADIUS[method]), "radius")
    if radius <= 0:
        raise ConfigError("radius: must be positive")
    max_iter = _iterations(data.get("maxIter", DEFAULT_MAX_ITER), "maxIter")
    cutoff_count = data.get("cutoffCount")
    if cutoff_count is not None:
        cutoff_count = _integer(cutoff_count, "cutoffCount")
        if not 1 <= cutoff_count <= max_iter:
            raise ConfigError("cutoffCount: must satisfy 1 <= cutoffCount <= maxIter")
    return ClassifierParams(method, radius, max_iter, cutoff_count)


def _parse_region(data: Any) -> Region3:
    data = _section(data, "region", {"min", "max", "resolution"})
    mn = _vector(_need(data, "min", "region."), "region.min", 3)
    mx = _vector(_need(data, "max", "region."), "region.max", 3)
    res = _integers(_need(data, "resolution", "region."), "region.resolution", 3)
    return _build("region", Region3, mn, mx, res)


def _parse_embedding(data: Any) -> Embedding:
    data = _section(data, "embedding", {"axes", "fixedValue"})
    axes = data.get("axes", list(Embedding.axes))
    if not isinstance(axes, list) or len(axes) != 3:
        raise ConfigError("embedding.axes: expected an array of 3 component names")
    fixed = data.get("fixedValue", Embedding.fixed_value)
    fixed = _number(fixed, "embedding.fixedValue")
    return _build("embedding.axes", Embedding, tuple(axes), fixed)


def _parse_camera(data: Any) -> Camera:
    data = _section(data, "camera", {"viewAxis", "imageSize"})
    axis = data.get("viewAxis", Camera.view_axis)
    size = data.get("imageSize", list(Camera.image_size))
    size = _integers(size, "camera.imageSize", 2)
    return _build("camera", Camera, axis, size)


def _parse_lighting(data: Any) -> LightingParams:
    allowed = {"model", "lightDir", "ambient", "diffuse", "specular", "shininess"}
    data = _section(data, "lighting", allowed)
    kwargs = {}
    if "model" in data:
        models = [m.value for m in LightModel]
        kwargs["model"] = LightModel(_choice(data["model"], "lighting.model", models))
    if data.get("lightDir") is not None:
        vec = _vector(data["lightDir"], "lighting.lightDir", 3)
        kwargs["light_dir"] = _build("lighting.lightDir", normalize3, vec)
    for name in ("ambient", "diffuse", "specular", "shininess"):
        if name in data:
            kwargs[name] = _number(data[name], f"lighting.{name}")
    # an absent key keeps RenderConfig's default lighting
    return _build("lighting", replace, RenderConfig.lighting, **kwargs)


_TOP_KEYS = {
    "map", "method", "radius", "maxIter", "cutoffCount", "region", "embedding",
    "camera", "lighting", "kRefine", "palette", "outputPath", "slice",
}


def parse_config_data(data: Any) -> RenderConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(data, _TOP_KEYS, "")
    map_spec = _parse_map(_need(data, "map"))
    params = _parse_params(data)
    region = _parse_region(data["region"]) if "region" in data else DEFAULT_REGION
    embedding = _parse_embedding(data.get("embedding", {}))
    camera = _parse_camera(data.get("camera", {}))
    lighting = _parse_lighting(data.get("lighting", {}))
    k_refine = _integer(data.get("kRefine", RenderConfig.k_refine), "kRefine")
    if k_refine < 0:
        raise ConfigError("kRefine: must be non-negative")
    palette = _choice(data.get("palette", RenderConfig.palette), "palette", _PALETTES)
    output_path = data.get("outputPath", RenderConfig.output_path)
    if not isinstance(output_path, str):
        raise ConfigError("outputPath: expected a string")

    slice_window = None
    slice_resolution = None
    if "slice" in data:
        sl = _section(data["slice"], "slice", {"window", "resolution"})
        if "window" in sl:
            slice_window = _vector(sl["window"], "slice.window", 4)
        if "resolution" in sl:
            slice_resolution = _integers(sl["resolution"], "slice.resolution", 2)

    return RenderConfig(
        map=map_spec,
        params=params,
        region=region,
        embedding=embedding,
        camera=camera,
        lighting=lighting,
        k_refine=k_refine,
        palette=palette,
        output_path=output_path,
        slice_window=slice_window,
        slice_resolution=slice_resolution,
    )


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def parse_config(text: str) -> RenderConfig:
    return parse_config_data(_load_json(text))


def _listed(v):
    """v with each tuple in it, Quaternions included, made a list."""
    return [_listed(c) for c in v] if isinstance(v, tuple) else v


def _map_json(spec: MapSpec) -> dict:
    data = {"kind": spec.kind}
    for key in _MAP_KINDS[spec.kind]:
        data[key] = _listed(getattr(spec, key))
    return data


def config_data(cfg: RenderConfig) -> dict:
    data = {
        "map": _map_json(cfg.map),
        "method": cfg.params.method.value,
        "radius": cfg.params.radius,
        "maxIter": cfg.params.max_iter,
        "cutoffCount": cfg.params.cutoff_count,
        "region": {
            "min": list(cfg.region.min),
            "max": list(cfg.region.max),
            "resolution": list(cfg.region.resolution),
        },
        "embedding": {
            "axes": list(cfg.embedding.axes),
            "fixedValue": cfg.embedding.fixed_value,
        },
        "camera": {
            "viewAxis": cfg.camera.view_axis,
            "imageSize": list(cfg.camera.image_size),
        },
        "lighting": {
            "model": cfg.lighting.model.value,
            "lightDir": list(cfg.lighting.light_dir),
            "ambient": cfg.lighting.ambient,
            "diffuse": cfg.lighting.diffuse,
            "specular": cfg.lighting.specular,
            "shininess": cfg.lighting.shininess,
        },
        "kRefine": cfg.k_refine,
        "palette": cfg.palette,
        "outputPath": cfg.output_path,
    }
    if cfg.slice_window is not None or cfg.slice_resolution is not None:
        sl = {}
        if cfg.slice_window is not None:
            sl["window"] = list(cfg.slice_window)
        if cfg.slice_resolution is not None:
            sl["resolution"] = list(cfg.slice_resolution)
        data["slice"] = sl
    return data


def serialize_config(cfg: RenderConfig) -> str:
    return json.dumps(config_data(cfg), indent=2) + "\n"


def parse_sweep(text: str) -> SweepSpec:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(data, {"radii", "iterationCounts", "base"}, "")
    radii = _array(data.get("radii"), "radii")
    counts = _array(data.get("iterationCounts"), "iterationCounts")
    base = parse_config_data(_need(data, "base"))
    parsed_radii = tuple(_number(r, "radii") for r in radii)
    if any(r <= 0 for r in parsed_radii):
        raise ConfigError("radii: must be positive")
    parsed_counts = tuple(_iterations(c, "iterationCounts") for c in counts)
    return SweepSpec(parsed_radii, parsed_counts, base)
