"""Orthographic first-hit rendering of the plotted set.

Each pixel casts an axis-aligned ray through the scan region, sampling
at the region's grid step.  The first plotted sample is bracketed with
its unplotted predecessor and refined by bisection, giving a sub-voxel
depth map.  ``cast_rays`` bisects every bracket at once on arrays;
``refine_bisect``, its scalar twin beside it, bisects one bracket of
quaternions, and the two agree bit for bit on the same bracket.
Surface normals come from the depth-map gradient (the classifier is
boolean, there is no smooth scalar field to differentiate) and pixels
are shaded with a simple Lambertian, Lambertian, or Phong model.
Everything is a pure function of the scene description, so repeated
renders are byte-identical whatever the worker count.

Camera space: +x is image right, +y image up, +z toward the viewer.
Light directions and normals live in that frame regardless of which
region axis the camera looks along.
"""

from __future__ import annotations

import colorsys
import enum
import math
from dataclasses import dataclass

import numpy as np

from qjulia import dynamics, field as fld, quat
from qjulia.dynamics import ClassifierParams, QRationalMap, plotted_bits
from qjulia.quat import Quaternion

PALETTES = ("gray", "steps")
_VIEW_AXES = {"+x": (0, 1), "-x": (0, -1), "+y": (1, 1), "-y": (1, -1), "+z": (2, 1), "-z": (2, -1)}


class LightModel(enum.Enum):
    SIMPLE_LAMBERTIAN = "simple"
    LAMBERTIAN = "lambertian"
    PHONG = "phong"


def normalize3(v: tuple[float, float, float]) -> tuple[float, float, float]:
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    # idempotent on unit vectors so serialized directions reload bit-equal
    if abs(n - 1.0) < 1e-12:
        return (v[0], v[1], v[2])
    return (v[0] / n, v[1] / n, v[2] / n)


@dataclass(frozen=True)
class Camera:
    view_axis: str = "+z"
    image_size: tuple[int, int] = (128, 128)

    def __post_init__(self):
        # the string test comes first: an unhashable axis cannot be looked up
        if not isinstance(self.view_axis, str) or self.view_axis not in _VIEW_AXES:
            raise ValueError(f"view_axis must be one of {sorted(_VIEW_AXES)}")
        w, h = self.image_size
        if w < 1 or h < 1:
            raise ValueError("image_size components must be >= 1")


@dataclass(frozen=True)
class LightingParams:
    model: LightModel = LightModel.PHONG
    light_dir: tuple[float, float, float] = (0.0, 0.0, 1.0)
    ambient: float = 0.1
    diffuse: float = 0.7
    specular: float = 0.3
    shininess: float = 16.0

    def __post_init__(self):
        n = math.sqrt(sum(c * c for c in self.light_dir))
        if abs(n - 1.0) > 1e-9:
            raise ValueError("light_dir must be a unit vector")
        for name in ("ambient", "diffuse", "specular"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.shininess < 1.0:
            raise ValueError("shininess must be >= 1")


@dataclass
class DepthMap:
    """Per-pixel first-hit data; row 0 is the top image row."""

    hit: np.ndarray
    depth: np.ndarray
    points: np.ndarray
    steps: np.ndarray
    du: float
    dv: float


def _frame_axes(view_axis: str) -> tuple[int, int, int, int]:
    """(march axis, sign, u axis, v axis) for a view direction."""
    axis, sign = _VIEW_AXES[view_axis]
    u_axis, v_axis = [a for a in (0, 1, 2) if a != axis]
    return axis, sign, u_axis, v_axis


def cast_rays(
    F: QRationalMap,
    region: fld.Region3,
    emb: fld.Embedding,
    params: ClassifierParams,
    camera: Camera,
    k_refine: int = 20,
    workers: int = 1,
) -> DepthMap:
    """March every pixel's ray and record the refined first hit.

    Sampling runs entrance face to exit face at the region's grid step
    along the view axis.  A hit on the very first sample is reported at
    depth zero (the surface starts on or before the entrance face, there
    is no bracket to refine).  Basin interiors behind the first hit are
    never revisited.

    Two fld.run_chunks passes do the work: the march batches rays by
    flat pixel index (row * w + col), exactly as scan batches voxels, and
    records each ray's first plotted layer; the refine then batches the
    hits, bisects each bracket (stopping early once every bracket in the
    batch is down to adjacent floats, so any k_refine is bounded) and
    takes the final sample.  A batch may
    start or end mid-row.  Every lane reads only its own ray, so any
    partition of pixels or hits gives the same bytes.
    """
    axis, sign, u_axis, v_axis = _frame_axes(camera.view_axis)
    w, h = camera.image_size
    na = region.resolution[axis]
    da = region.step(axis)
    t0 = region.min[axis] if sign > 0 else region.max[axis]
    du = (region.max[u_axis] - region.min[u_axis]) / w
    dv = (region.max[v_axis] - region.min[v_axis]) / h

    us = region.min[u_axis] + (np.arange(w, dtype=np.float64) + 0.5) * du
    vs = region.min[v_axis] + (np.arange(h, dtype=np.float64)[::-1] + 0.5) * dv

    # each ray's first plotted layer, -1 for a miss
    first = np.full(w * h, -1)
    depth = np.full(w * h, np.inf)
    points = np.zeros((w * h, 4))
    steps_at_hit = np.zeros(w * h, dtype=np.uint32)

    def layer_t(j):
        return region.min[axis] + j * da if sign > 0 else region.max[axis] - j * da

    def sample(pix, ts):
        coords = [None, None, None]
        coords[axis] = ts
        coords[u_axis] = us[pix % w]
        coords[v_axis] = vs[pix // w]
        q = fld.embed_batch(emb, *coords)
        (tags,), (steps,) = dynamics.classify_cells(F, (params,), *q)
        return q, steps, plotted_bits(tags, steps, params)

    def march(lo: int, hi: int) -> None:
        alive = np.arange(lo, hi)
        for j in range(na):
            if alive.size == 0:
                break
            plotted = sample(alive, np.full(alive.size, layer_t(j)))[2]
            first[alive[plotted]] = j
            alive = alive[~plotted]

    fld.run_chunks(march, w * h, workers)
    hit = first >= 0
    hits = np.flatnonzero(hit)

    def refine(lo: int, hi: int) -> None:
        # bisect between the last unplotted and the first plotted layer;
        # layer-0 hits have no bracket and stay on the entrance face
        pix = hits[lo:hi]
        bracketed = first[pix] > 0
        g = pix[bracketed]
        a_t = layer_t(first[g] - 1)
        b_t = layer_t(first[g])
        for _ in range(k_refine):
            mid = (a_t + b_t) * 0.5
            # at float64 resolution every later round would re-sample an
            # endpoint (a_t unplotted, b_t plotted) and move nothing
            if np.all((mid == a_t) | (mid == b_t)):
                break
            plotted = sample(g, mid)[2]
            b_t = np.where(plotted, mid, b_t)
            a_t = np.where(plotted, a_t, mid)
        ts = layer_t(first[pix])
        ts[bracketed] = (a_t + b_t) * 0.5
        q, steps, _ = sample(pix, ts)
        # a literal +0.0: (t0 - t0) * sign is -0.0 on the negative axes
        depth[pix] = np.where(bracketed, (ts - t0) * sign, 0.0)
        points[pix] = np.stack(q, axis=1)
        steps_at_hit[pix] = steps

    fld.run_chunks(refine, hits.size, workers)

    return DepthMap(
        hit.reshape(h, w), depth.reshape(h, w), points.reshape(h, w, 4),
        steps_at_hit.reshape(h, w), du, dv,
    )


class InvalidBracket(ValueError):
    """refine_bisect endpoints do not straddle the plotted boundary."""


def refine_bisect(
    F: QRationalMap,
    a: Quaternion,
    b: Quaternion,
    params: ClassifierParams,
    k: int,
) -> Quaternion:
    """Bisect the segment a..b down to the plotted/unplotted boundary.

    Needs endpoints of differing fate; halves the interval k times,
    always keeping the sub-segment whose ends still disagree, and
    returns the final midpoint (within |b-a|/2^k of a crossing).
    """
    fa = dynamics.is_plotted(dynamics.classify(F, a, params), params)
    fb = dynamics.is_plotted(dynamics.classify(F, b, params), params)
    if fa == fb:
        raise InvalidBracket("endpoints have identical plotted fate")
    for _ in range(k):
        mid = quat.scale(quat.add(a, b), 0.5)
        fm = dynamics.is_plotted(dynamics.classify(F, mid, params), params)
        if fm == fa:
            a = mid
        else:
            b = mid
    return quat.scale(quat.add(a, b), 0.5)


def estimate_normal(dm: DepthMap, row: int, col: int) -> tuple[float, float, float]:
    """Camera-space unit normal from depth differences at a hit pixel.

    Central differences where both neighbors hit, one-sided at the
    silhouette or image edge, flat facing the camera when isolated.
    """
    h, w = dm.hit.shape
    t = dm.depth

    def ok(r: int, c: int) -> bool:
        return 0 <= r < h and 0 <= c < w and bool(dm.hit[r, c])

    def slope(lo: tuple[int, int], hi: tuple[int, int], d: float) -> float:
        """Depth change per unit step from neighbor lo to neighbor hi."""
        if ok(*lo) and ok(*hi):
            return (t[hi] - t[lo]) / (2.0 * d)
        if ok(*hi):
            return (t[hi] - t[row, col]) / d
        if ok(*lo):
            return (t[row, col] - t[lo]) / d
        return 0.0

    dtdx = slope((row, col - 1), (row, col + 1), dm.du)
    # image rows grow downward while v grows upward
    dtdy = slope((row + 1, col), (row - 1, col), dm.dv)
    return normalize3((-dtdx, -dtdy, 1.0))


def shade(normal: tuple[float, float, float], lighting: LightingParams) -> float:
    """Intensity in [0, 1] for a unit camera-space normal."""
    lx, ly, lz = lighting.light_dir
    nx, ny, nz = normal
    nl = nx * lx + ny * ly + nz * lz
    diff = max(0.0, nl)
    if lighting.model is LightModel.SIMPLE_LAMBERTIAN:
        return min(1.0, diff)
    value = lighting.ambient + lighting.diffuse * diff
    if lighting.model is LightModel.PHONG:
        rz = 2.0 * nl * nz - lz
        # V = (0,0,1): the camera looks down +z of its own frame
        value += lighting.specular * max(0.0, rz) ** lighting.shininess
    return min(1.0, max(0.0, value))


def render_image(
    F: QRationalMap,
    region: fld.Region3,
    emb: fld.Embedding,
    params: ClassifierParams,
    camera: Camera,
    lighting: LightingParams,
    k_refine: int = 20,
    workers: int = 1,
    palette: str = "gray",
) -> np.ndarray:
    """First-hit render; uint8 grayscale (h, w), or RGB (h, w, 3) for the
    steps palette, which colors hits by convergence step count."""
    if palette not in PALETTES:
        raise ValueError("palette must be 'gray' or 'steps'")
    dm = cast_rays(F, region, emb, params, camera, k_refine, workers)
    h, w = dm.hit.shape
    if palette == "gray":
        img = np.zeros((h, w), dtype=np.uint8)
    else:
        img = np.zeros((h, w, 3), dtype=np.uint8)
    for row, col in zip(*np.nonzero(dm.hit)):
        intensity = shade(estimate_normal(dm, row, col), lighting)
        if palette == "gray":
            img[row, col] = int(intensity * 255.0 + 0.5)
        else:
            hue = (int(dm.steps[row, col]) % 32) / 32.0
            r, g, b = colorsys.hsv_to_rgb(hue, 1.0, intensity)
            img[row, col] = (
                int(r * 255.0 + 0.5),
                int(g * 255.0 + 0.5),
                int(b * 255.0 + 0.5),
            )
    return img


def write_ppm(path, image: np.ndarray) -> None:
    """Binary P6; grayscale input is replicated into the three channels."""
    if image.dtype != np.uint8:
        raise ValueError("image must be uint8")
    if image.ndim == 2:
        image = np.dstack((image, image, image))
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("image must be (h, w) or (h, w, 3)")
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image).tobytes())
