"""Correctness gate for the files one CLI command writes.

Seed 0 compares SHA-256 digests with the ones pinned from the seed
commit.  Other seeds have no pinned digests: the first command's outputs
are checked for shape and re-derived in part by an independent path (the
scalar quaternion classifier, which the batch kernel and the complex
oracle must match bit for bit), and every later command of the run must
reproduce their digests.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from qjulia import config, dynamics, field, render
from qjulia.dynamics import OUTCOME_LABELS
from qjulia.quat import Quaternion

SAMPLES = 64  # voxels or pixels re-classified per checked output

Check = Callable[[dict[str, Path]], list[str]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Gate:
    """Decides whether one command's exit code and outputs are correct."""

    def __init__(self, check: Check, pinned: Optional[dict[str, str]]) -> None:
        self.check = check
        self.expected = pinned
        self.digests: dict[str, str] = {}

    def __call__(self, exit_code: int, outputs: dict[str, Path]) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        missing = [name for name, path in outputs.items() if not path.is_file()]
        if missing:
            return [f"{name}: not written" for name in missing]
        self.digests = {name: sha256(path) for name, path in outputs.items()}
        if self.expected is None:
            problems = self.check(outputs)
            if not problems:
                self.expected = dict(self.digests)
            return problems
        return [
            f"{name}: sha256 {digest[:16]} != expected {self.expected[name][:16]}"
            for name, digest in self.digests.items()
            if digest != self.expected[name]
        ]


def _netpbm(path: Path, magic: str, width: int, height: int, depth: int) -> tuple[list[str], bytes]:
    data = path.read_bytes()
    header = f"{magic}\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header):
        return [f"{path.name}: header is not {header!r}"], b""
    payload = data[len(header):]
    if len(payload) != width * height * depth:
        return [f"{path.name}: {len(payload)} payload bytes, expected {width * height * depth}"], b""
    return [], payload


def _voxel(region, flat: int) -> tuple[int, int, int]:
    nx, ny, _ = region.resolution
    return flat % nx, (flat // nx) % ny, flat // (nx * ny)


def _row(ix: int, iy: int, iz: int, out: dynamics.OrbitOutcome) -> str:
    return f"{ix},{iy},{iz},{OUTCOME_LABELS[out.kind]},{out.steps}"


def _scalar_row(F, region, emb, params, flat: int) -> str:
    ix, iy, iz = _voxel(region, flat)
    return _row(ix, iy, iz, dynamics.classify(F, field.embed(region, emb, ix, iy, iz), params))


def _frame(cfg) -> tuple[int, int, int, int, float, float]:
    """(march axis, sign, u axis, v axis, du, dv) as render.cast_rays sets them."""
    region, camera = cfg.region, cfg.camera
    axis = "xyz".index(camera.view_axis[1])
    u_axis, v_axis = [a for a in range(3) if a != axis]
    w, h = camera.image_size
    du = (region.max[u_axis] - region.min[u_axis]) / w
    dv = (region.max[v_axis] - region.min[v_axis]) / h
    return axis, 1 if camera.view_axis[0] == "+" else -1, u_axis, v_axis, du, dv


def _ray_depth(F, cfg, row: int, col: int) -> Optional[float]:
    """First-hit depth of one pixel's ray by the scalar classifier, marched
    and bisected as render.cast_rays defines it; None for a miss."""
    region, params = cfg.region, cfg.params
    axis, sign, u_axis, v_axis, du, dv = _frame(cfg)
    h = cfg.camera.image_size[1]
    coords = [0.0, 0.0, 0.0]
    coords[u_axis] = region.min[u_axis] + (col + 0.5) * du
    coords[v_axis] = region.min[v_axis] + (h - 1 - row + 0.5) * dv

    def plotted(t: float) -> bool:
        coords[axis] = t
        out = dynamics.classify(F, field.embed_coords(cfg.embedding, *coords), params)
        return dynamics.is_plotted(out, params)

    t0 = region.min[axis] if sign > 0 else region.max[axis]
    da = region.step(axis)
    prev = t0
    for j in range(region.resolution[axis]):
        t = region.min[axis] + j * da if sign > 0 else region.max[axis] - j * da
        if plotted(t):
            if j == 0:
                return 0.0
            a, b = prev, t
            for _ in range(cfg.k_refine):
                mid = (a + b) * 0.5
                if plotted(mid):
                    b = mid
                else:
                    a = mid
            return ((a + b) * 0.5 - t0) * sign
        prev = t
    return None


def _gray_pixel(F, cfg, row: int, col: int) -> int:
    """Expected gray value of one pixel from scalar depths of it and its
    four neighbours, shaded by render.estimate_normal and render.shade."""
    w, h = cfg.camera.image_size
    hit = np.zeros((3, 3), dtype=bool)
    depth = np.full((3, 3), np.inf)
    for dr, dc in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
        r, c = row + dr, col + dc
        d = _ray_depth(F, cfg, r, c) if 0 <= r < h and 0 <= c < w else None
        if d is not None:
            hit[1 + dr, 1 + dc], depth[1 + dr, 1 + dc] = True, d
    if not hit[1, 1]:
        return 0
    *_, du, dv = _frame(cfg)
    dm = render.DepthMap(hit, depth, np.zeros((3, 3, 4)), np.zeros((3, 3), np.uint32), du, dv)
    return int(render.shade(render.estimate_normal(dm, 1, 1), cfg.lighting) * 255.0 + 0.5)


def render_check(config_path: Path, rng: random.Random) -> Check:
    """Field CSV rows and gray PPM pixels against the scalar path; half the
    sampled pixels are drawn from the lit ones, so shading is exercised."""
    cfg = config.parse_config(config_path.read_text(encoding="utf-8"))
    F = cfg.map.build()

    def check(outputs: dict[str, Path]) -> list[str]:
        w, h = cfg.camera.image_size
        problems, payload = _netpbm(outputs["ppm"], "P6", w, h, 3)
        if not problems and cfg.palette == "gray":
            lit = [i for i in range(w * h) if payload[3 * i]]
            pixels = rng.sample(range(w * h), SAMPLES // 4) + rng.sample(lit, min(len(lit), SAMPLES // 4))
            for pixel in pixels:
                row, col = divmod(pixel, w)
                want = _gray_pixel(F, cfg, row, col)
                if payload[3 * pixel:3 * pixel + 3] != bytes((want,) * 3):
                    problems.append(f"ppm pixel ({row}, {col}): {payload[3 * pixel]}, scalar path gives {want}")
        lines = outputs["csv"].read_text(encoding="ascii").splitlines()
        total = cfg.region.voxel_count
        if lines[:1] != ["ix,iy,iz,outcome,steps"] or len(lines) != total + 1:
            return problems + [f"csv: {len(lines)} lines, expected header + {total}"]
        for flat in rng.sample(range(total), SAMPLES):
            want = _scalar_row(F, cfg.region, cfg.embedding, cfg.params, flat)
            if lines[flat + 1] != want:
                problems.append(f"csv row {flat}: {lines[flat + 1]!r}, scalar path gives {want!r}")
        return problems

    return check


def slice_check(config_path: Path, rng: random.Random) -> Check:
    cfg = config.parse_config(config_path.read_text(encoding="utf-8"))
    F = cfg.map.build()
    region = cfg.region
    xmin, xmax, ymin, ymax = cfg.slice_window or (
        region.min[0], region.max[0], region.min[1], region.max[1]
    )
    nx, ny = cfg.slice_resolution or region.resolution[:2]

    def check(outputs: dict[str, Path]) -> list[str]:
        problems, payload = _netpbm(outputs["pgm"], "P5", nx, ny, 1)
        if problems:
            return problems
        dx, dy = (xmax - xmin) / (nx - 1), (ymax - ymin) / (ny - 1)
        for pixel in rng.sample(range(nx * ny), SAMPLES):
            row, ix = divmod(pixel, nx)
            iy = ny - 1 - row  # top image row is max y
            seed = Quaternion(xmin + ix * dx, ymin + iy * dy, 0.0, 0.0)
            plotted = dynamics.is_plotted(dynamics.classify(F, seed, cfg.params), cfg.params)
            if payload[pixel] != (255 if plotted else 0):
                problems.append(f"pgm pixel ({ix}, {iy}): {payload[pixel]}, scalar path gives {plotted}")
        return problems

    return check


def sweep_check(config_path: Path, rng: random.Random) -> Check:
    """Re-scan one cell at 1 worker, spot-check it against the scalar path
    and compare its statistics with that cell's CSV row."""
    spec = config.parse_sweep(config_path.read_text(encoding="utf-8"))
    base = spec.base
    F = base.map.build()
    cells = spec.cells()

    def check(outputs: dict[str, Path]) -> list[str]:
        lines = outputs["csv"].read_text(encoding="ascii").splitlines()
        if len(lines) != len(cells) + 1 or not lines[0].startswith("radius,maxIter,"):
            return [f"csv: {len(lines)} lines, expected header + {len(cells)}"]
        problems = [
            f"csv row {i}: {line!r} is not cell ({r:g}, {it})"
            for i, (line, (r, it)) in enumerate(zip(lines[1:], cells), 1)
            if not line.startswith(f"{r:g},{it},")
        ]
        i = rng.randrange(len(cells))
        radius, max_iter = cells[i]
        params = spec.cell_params(radius, max_iter)
        fld = field.scan(F, base.region, base.embedding, params, workers=1)
        for flat in rng.sample(range(base.region.voxel_count), SAMPLES):
            want = _scalar_row(F, base.region, base.embedding, params, flat)
            ix, iy, iz = _voxel(base.region, flat)
            got = _row(ix, iy, iz, fld.outcome(ix, iy, iz))
            if got != want:
                problems.append(f"cell {i}: batch row {got!r}, scalar path gives {want!r}")
        want_row = (
            f"{radius:g},{max_iter},{fld.fraction_plotted():.6f},"
            f"{fld.fraction(dynamics.OutcomeKind.ESCAPED):.6f},"
            f"{fld.fraction(dynamics.OutcomeKind.CONVERGED):.6f},{fld.mean_steps():.6f}"
        )
        if lines[i + 1] != want_row:
            problems.append(f"csv row {i + 1}: {lines[i + 1]!r}, re-scan gives {want_row!r}")
        return problems

    return check
