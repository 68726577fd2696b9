"""JSON job descriptions for the CLI.

A render job is one JSON object; quaternions are written as 4-element
[r, m, n, p] arrays (bare numbers are accepted on input and read as
real), polynomials as ascending-degree coefficient arrays.  parse and
serialize round-trip: parse(serialize(cfg)) == cfg.

Unknown or malformed keys raise ConfigError with the offending key in
the message rather than being ignored.
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
from qjulia.render import Camera, LightModel, LightingParams, normalize3


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
    workers: Optional[int] = None
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


def _check_keys(data: dict, allowed: set[str], ctx: str) -> None:
    for k in data:
        if k not in allowed:
            raise ConfigError(f"unknown key {ctx}{k}")


def _parse_map(data: Any) -> MapSpec:
    if not isinstance(data, dict):
        raise ConfigError("map: expected an object")
    kind = _need(data, "kind", "map.")
    if kind == "quadratic":
        _check_keys(data, {"kind", "p", "q"}, "map.")
        spec = MapSpec(
            "quadratic",
            p=_quaternion(_need(data, "p", "map."), "map.p"),
            q=_quaternion(_need(data, "q", "map."), "map.q"),
        )
    elif kind == "rational":
        _check_keys(data, {"kind", "numerator", "denominator"}, "map.")
        num = _need(data, "numerator", "map.")
        den = _need(data, "denominator", "map.")
        if not isinstance(num, list) or not num:
            raise ConfigError("map.numerator: expected a non-empty array")
        if not isinstance(den, list) or not den:
            raise ConfigError("map.denominator: expected a non-empty array")
        spec = MapSpec(
            "rational",
            numerator=tuple(_quaternion(c, "map.numerator") for c in num),
            denominator=tuple(_quaternion(c, "map.denominator") for c in den),
        )
    elif kind == "newton":
        _check_keys(data, {"kind", "polynomial"}, "map.")
        poly = _need(data, "polynomial", "map.")
        if not isinstance(poly, list) or not poly:
            raise ConfigError("map.polynomial: expected a non-empty array")
        spec = MapSpec(
            "newton", polynomial=tuple(_number(c, "map.polynomial") for c in poly)
        )
    else:
        raise ConfigError(f"map.kind: unknown kind {kind!r}")
    try:
        spec.build()
    except ConfigError:
        raise
    except (ValueError, dynamics.NonRealCoefficients) as exc:
        raise ConfigError(f"map: {exc}") from exc
    return spec


def _parse_params(data: dict) -> ClassifierParams:
    raw_method = data.get("method", "cutoff")
    try:
        method = ClassifierMethod(raw_method)
    except ValueError:
        raise ConfigError(f"method: expected 'escape' or 'cutoff', got {raw_method!r}")
    radius = _number(data.get("radius", DEFAULT_RADIUS[method]), "radius")
    if radius <= 0:
        raise ConfigError("radius: must be positive")
    max_iter = _integer(data.get("maxIter", DEFAULT_MAX_ITER), "maxIter")
    if max_iter < 1:
        raise ConfigError("maxIter: must be at least 1")
    cutoff_count = data.get("cutoffCount")
    if cutoff_count is not None:
        cutoff_count = _integer(cutoff_count, "cutoffCount")
        if not 1 <= cutoff_count <= max_iter:
            raise ConfigError("cutoffCount: must satisfy 1 <= cutoffCount <= maxIter")
    return ClassifierParams(method, radius, max_iter, cutoff_count)


def _parse_region(data: Any) -> Region3:
    if not isinstance(data, dict):
        raise ConfigError("region: expected an object")
    _check_keys(data, {"min", "max", "resolution"}, "region.")
    mn = _vector(_need(data, "min", "region."), "region.min", 3)
    mx = _vector(_need(data, "max", "region."), "region.max", 3)
    res = _integers(_need(data, "resolution", "region."), "region.resolution", 3)
    try:
        return Region3(mn, mx, res)
    except ValueError as exc:
        raise ConfigError(f"region: {exc}") from exc


def _parse_embedding(data: Any) -> Embedding:
    if not isinstance(data, dict):
        raise ConfigError("embedding: expected an object")
    _check_keys(data, {"axes", "fixedValue"}, "embedding.")
    axes = data.get("axes", ["r", "m", "n"])
    if not isinstance(axes, list) or len(axes) != 3:
        raise ConfigError("embedding.axes: expected an array of 3 component names")
    fixed = _number(data.get("fixedValue", 0.0), "embedding.fixedValue")
    try:
        return Embedding(tuple(axes), fixed)
    except ValueError as exc:
        raise ConfigError(f"embedding.axes: {exc}") from exc


def _parse_camera(data: Any) -> Camera:
    if not isinstance(data, dict):
        raise ConfigError("camera: expected an object")
    _check_keys(data, {"viewAxis", "imageSize"}, "camera.")
    axis = data.get("viewAxis", "+z")
    size = _integers(data.get("imageSize", [128, 128]), "camera.imageSize", 2)
    try:
        return Camera(axis, size)
    except ValueError as exc:
        raise ConfigError(f"camera: {exc}") from exc


def _parse_lighting(data: Any) -> LightingParams:
    if not isinstance(data, dict):
        raise ConfigError("lighting: expected an object")
    allowed = {"model", "lightDir", "ambient", "diffuse", "specular", "shininess"}
    _check_keys(data, allowed, "lighting.")
    raw_model = data.get("model", "phong")
    try:
        model = LightModel(raw_model)
    except ValueError:
        raise ConfigError(
            f"lighting.model: expected 'simple', 'lambertian' or 'phong', got {raw_model!r}"
        )
    raw_dir = data.get("lightDir")
    if raw_dir is None:
        light_dir = DEFAULT_LIGHT_DIR
    else:
        vec = _vector(raw_dir, "lighting.lightDir", 3)
        try:
            light_dir = normalize3(vec)
        except ValueError as exc:
            raise ConfigError(f"lighting.lightDir: {exc}") from exc
    kwargs = {}
    for name in ("ambient", "diffuse", "specular", "shininess"):
        if name in data:
            kwargs[name] = _number(data[name], f"lighting.{name}")
    try:
        return LightingParams(model, light_dir, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"lighting: {exc}") from exc


_TOP_KEYS = {
    "map", "method", "radius", "maxIter", "cutoffCount", "region", "embedding",
    "camera", "lighting", "kRefine", "palette", "workers", "outputPath", "slice",
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
    k_refine = _integer(data.get("kRefine", 20), "kRefine")
    if k_refine < 0:
        raise ConfigError("kRefine: must be non-negative")
    palette = data.get("palette", "gray")
    if palette not in ("gray", "steps"):
        raise ConfigError(f"palette: expected 'gray' or 'steps', got {palette!r}")
    workers = data.get("workers")
    if workers is not None:
        workers = _integer(workers, "workers")
        if workers < 1:
            raise ConfigError("workers: must be at least 1")
    output_path = data.get("outputPath", "out.ppm")
    if not isinstance(output_path, str):
        raise ConfigError("outputPath: expected a string")

    slice_window = None
    slice_resolution = None
    if "slice" in data:
        sl = data["slice"]
        if not isinstance(sl, dict):
            raise ConfigError("slice: expected an object")
        _check_keys(sl, {"window", "resolution"}, "slice.")
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
        workers=workers,
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


def _quat_json(q: Quaternion) -> list[float]:
    return [q.r, q.m, q.n, q.p]


def _map_json(spec: MapSpec) -> dict:
    if spec.kind == "quadratic":
        return {"kind": "quadratic", "p": _quat_json(spec.p), "q": _quat_json(spec.q)}
    if spec.kind == "rational":
        return {
            "kind": "rational",
            "numerator": [_quat_json(c) for c in spec.numerator],
            "denominator": [_quat_json(c) for c in spec.denominator],
        }
    return {"kind": "newton", "polynomial": list(spec.polynomial)}


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
    if cfg.workers is not None:
        data["workers"] = cfg.workers
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
    radii = data.get("radii")
    if not isinstance(radii, list) or not radii:
        raise ConfigError("radii: expected a non-empty array")
    counts = data.get("iterationCounts")
    if not isinstance(counts, list) or not counts:
        raise ConfigError("iterationCounts: expected a non-empty array")
    base = parse_config_data(_need(data, "base"))
    parsed_radii = tuple(_number(r, "radii") for r in radii)
    if any(r <= 0 for r in parsed_radii):
        raise ConfigError("radii: must be positive")
    parsed_counts = tuple(_integer(c, "iterationCounts") for c in counts)
    if any(c < 1 for c in parsed_counts):
        raise ConfigError("iterationCounts: must be at least 1")
    return SweepSpec(parsed_radii, parsed_counts, base)
