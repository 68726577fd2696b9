"""Volume scanning: classify every voxel of a 3-D region.

Grid points (voxel corners, min + i*delta) are embedded into quaternion
space, classified in vectorized batches, and collected into a
ClassificationField of outcome tags and step counts.  The batch code
calls the per-seed arithmetic of ``dynamics`` (``_eval_poly``,
``_divide``, ``plotted_bits``) on whole arrays of lanes, and
``embed_coords`` and ``_embed_batch`` share one component assignment,
so the only code written twice is the orbit loop: ``_classify_cells``
mirrors ``dynamics.classify`` decision for decision.  Scalar and
vectorized classification agree bit for bit; that exact agreement is
what makes scan results independent of the worker count.

The batch classifier is one orbit loop over a list of (radius, max_iter)
cells that share a method: a scan given several ClassifierParams (a
sweep) iterates each voxel once, to the largest max_iter, and reads
every cell's outcome from per-radius first-step records.  Its one-cell
case, ``_classify_batch``, is the mirror of ``classify`` that ``scan``
and the renderer use for a single parameter set.

Workers split the flat voxel index space into fixed-size chunks and
write disjoint slices of the output arrays, so no locking is needed and
the chunk boundaries never depend on how many workers run.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qjulia import quat
from qjulia.quat import EPS_DIV, Quaternion
from qjulia import dynamics
from qjulia.dynamics import (
    ClassifierMethod,
    ClassifierParams,
    OrbitOutcome,
    OutcomeKind,
    OUTCOME_LABELS,
    QRationalMap,
)

_CHUNK = 4096
_MAGIC = b"QJF1"

_COMPONENTS = ("r", "m", "n", "p")


class InvalidBracket(ValueError):
    """refine_bisect endpoints do not straddle the plotted boundary."""


@dataclass(frozen=True)
class Region3:
    min: tuple[float, float, float]
    max: tuple[float, float, float]
    resolution: tuple[int, int, int]

    def __post_init__(self):
        for lo, hi in zip(self.min, self.max):
            if not lo < hi:
                raise ValueError("region min must be strictly below max")
        for r in self.resolution:
            if r < 2:
                raise ValueError("resolution components must be >= 2")

    def step(self, axis: int) -> float:
        return (self.max[axis] - self.min[axis]) / (self.resolution[axis] - 1)

    def coord(self, axis: int, index: int) -> float:
        return self.min[axis] + index * self.step(axis)

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.resolution
        return nx * ny * nz


@dataclass(frozen=True)
class Embedding:
    """Assignment of scan axes x,y,z to three quaternion components.

    The remaining component is pinned to fixed_value.  The default maps
    (x,y,z) to (r,m,n) with p=0.
    """

    axes: tuple[str, str, str] = ("r", "m", "n")
    fixed_value: float = 0.0

    def __post_init__(self):
        if len(set(self.axes)) != 3 or any(a not in _COMPONENTS for a in self.axes):
            raise ValueError("axes must be three distinct quaternion components")

    @property
    def fixed_component(self) -> str:
        return next(c for c in _COMPONENTS if c not in self.axes)


DEFAULT_EMBEDDING = Embedding()


def _embed(emb: Embedding, x, y, z, fixed):
    """(r, m, n, p) with x, y, z on emb.axes and fixed on the fourth
    component; floats or like-shaped arrays alike."""
    parts = {emb.fixed_component: fixed}
    parts[emb.axes[0]] = x
    parts[emb.axes[1]] = y
    parts[emb.axes[2]] = z
    return parts["r"], parts["m"], parts["n"], parts["p"]


def embed_coords(emb: Embedding, x: float, y: float, z: float) -> Quaternion:
    return Quaternion(*_embed(emb, x, y, z, emb.fixed_value))


def embed(region: Region3, emb: Embedding, ix: int, iy: int, iz: int) -> Quaternion:
    return embed_coords(
        emb, region.coord(0, ix), region.coord(1, iy), region.coord(2, iz)
    )


def _embed_batch(emb: Embedding, xs, ys, zs):
    """Array version of embed_coords; returns the four component arrays."""
    return _embed(emb, xs, ys, zs, np.full_like(xs, emb.fixed_value))


def _step_batch(F: QRationalMap, hr, hm, hn, hp):
    """One map application on a batch; returns components plus pole mask.

    dynamics._eval_map is the scalar form; here a pole lane divides by
    its near-zero norm under errstate and is masked instead of raised.
    """
    with np.errstate(all="ignore"):
        nr, nm, nn, npp = dynamics._eval_poly(F.numerator.coeffs, hr, hm, hn, hp)
        den = dynamics._eval_poly(F.denominator.coeffs, hr, hm, hn, hp)
        # a one-coefficient denominator (the 1 below a polynomial map) is
        # floats; filled to lane shape, the pole mask and results are arrays
        # and the division is numpy's, which errstate covers
        dr, dm, dn, dp = (
            d if isinstance(d, np.ndarray) else np.full_like(hr, d) for d in den
        )
        ns = dr * dr + dm * dm + dn * dn + dp * dp
        # not ns > EPS_DIV, so that a NaN norm is a pole too
        pole = np.logical_not(ns > EPS_DIV)
        return (*dynamics._divide(nr, nm, nn, npp, dr, dm, dn, dp, ns), pole)


def _classify_cells(F: QRationalMap, method: ClassifierMethod, cells, hr, hm, hn, hp):
    """Vectorized dynamics.classify for several (radius, max_iter) cells at once.

    The orbit does not depend on the radius, and a cell with a smaller
    max_iter sees a prefix of the longest orbit, so one pass to the
    largest max_iter answers every cell.  Per lane the loop records the
    step of a pole or overflow; per distinct radius, the first step
    outside the ball (escape time) or the first step with
    |p_n - p_{n-1}| < radius (cut-off rate, where a lane retires once its
    smallest radius converges, since every larger one has then converged
    too); and, for escape time, the norm at each distinct max_iter.  Each
    cell's tag and step are then read off those records exactly as
    classify would have decided them.  With one cell the per-step numpy
    ops are those of classify's loop, which this function mirrors.

    Returns (tags uint8, steps uint32), both shaped (len(cells), count).
    Lanes drop out of the working set as they resolve; per-lane values
    never depend on other lanes, so any partition of seeds into batches
    gives identical results.
    """
    count = hr.size
    escape = method is ClassifierMethod.ESCAPE_TIME
    radii = sorted({radius for radius, _ in cells})
    iters = sorted({max_iter for _, max_iter in cells})
    first = [np.zeros(count, dtype=np.uint32) for _ in radii]
    # NaN where a lane ended before that step, and NaN > radius is False
    norm_at = {m: np.full(count, np.nan) for m in iters} if escape else {}
    ended = np.zeros(count, dtype=np.uint32)
    ended_tag = np.empty(count, dtype=np.uint8)
    idx = np.arange(count)

    prev = (hr, hm, hn, hp)
    for n in range(1, iters[-1] + 1):
        br, bm, bn, bp, pole = _step_batch(F, *prev)
        finite = np.isfinite(br) & np.isfinite(bm) & np.isfinite(bn) & np.isfinite(bp)
        blown = ~finite & ~pole
        if pole.any():
            ended[idx[pole]] = n
            ended_tag[idx[pole]] = OutcomeKind.POLE_HIT
        if blown.any():
            ended[idx[blown]] = n
            ended_tag[idx[blown]] = OutcomeKind.ESCAPED
        keep = finite & ~pole
        if escape:
            with np.errstate(all="ignore"):
                norm = np.sqrt(br * br + bm * bm + bn * bn + bp * bp)
            for radius, first_out in zip(radii, first):
                newly = keep & (first_out[idx] == 0) & (norm > radius)
                if newly.any():
                    first_out[idx[newly]] = n
            if n in norm_at:
                norm_at[n][idx[keep]] = norm[keep]
        else:
            with np.errstate(all="ignore"):
                dr = br - prev[0]
                dm = bm - prev[1]
                dn = bn - prev[2]
                dp = bp - prev[3]
                dist = np.sqrt(dr * dr + dm * dm + dn * dn + dp * dp)
                # a live lane has not converged at the smallest radius yet
                retire = keep & (dist < radii[0])
            if retire.any():
                first[0][idx[retire]] = n
            for radius, first_conv in zip(radii[1:], first[1:]):
                conv = keep & (first_conv[idx] == 0) & (dist < radius)
                if conv.any():
                    first_conv[idx[conv]] = n
            keep &= ~retire
        idx = idx[keep]
        if idx.size == 0:
            break
        prev = (br[keep], bm[keep], bn[keep], bp[keep])

    tags = np.empty((len(cells), count), dtype=np.uint8)
    steps = np.empty((len(cells), count), dtype=np.uint32)
    for cell, (radius, max_iter) in enumerate(cells):
        hit = first[radii.index(radius)]
        tag, step = tags[cell], steps[cell]
        tag[:] = OutcomeKind.INDETERMINATE
        step[:] = max_iter
        if escape:
            out = norm_at[max_iter] > radius
            tag[out] = OutcomeKind.ESCAPED
            step[out] = hit[out]
        done = (ended != 0) & (ended <= max_iter)
        tag[done] = ended_tag[done]
        step[done] = ended[done]
        if escape:
            # overflow reports the first step outside the ball, if any
            late = done & (ended_tag == OutcomeKind.ESCAPED) & (hit != 0)
            step[late] = hit[late]
        else:
            conv = (hit != 0) & (hit <= max_iter)
            tag[conv] = OutcomeKind.CONVERGED
            step[conv] = hit[conv]
    return tags, steps


def _classify_batch(F: QRationalMap, params: ClassifierParams, hr, hm, hn, hp):
    """Vectorized dynamics.classify: the one-cell case of _classify_cells.

    Returns (tags uint8, steps uint32) shaped like hr.
    """
    tags, steps = _classify_cells(
        F, params.method, [(params.radius, params.max_iter)], hr, hm, hn, hp
    )
    return tags[0], steps[0]


@dataclass
class ClassificationField:
    """Per-voxel outcome tags and step counts, shaped (nz, ny, nx).

    Flattening in C order yields the canonical x-fastest voxel order
    (flat index = ix + nx*(iy + ny*iz)).
    """

    region: Region3
    embedding: Embedding
    params: ClassifierParams
    tags: np.ndarray
    steps: np.ndarray

    def outcome(self, ix: int, iy: int, iz: int) -> OrbitOutcome:
        return OrbitOutcome(
            OutcomeKind(int(self.tags[iz, iy, ix])), int(self.steps[iz, iy, ix])
        )

    def plotted_mask(self) -> np.ndarray:
        """Boolean array of dynamics.is_plotted applied voxelwise."""
        return dynamics.plotted_bits(self.tags, self.steps, self.params)

    def counts(self) -> dict[OutcomeKind, int]:
        return {kind: int((self.tags == kind).sum()) for kind in OutcomeKind}

    def fraction(self, kind: OutcomeKind) -> float:
        return int((self.tags == kind).sum()) / self.region.voxel_count

    def fraction_plotted(self) -> float:
        return float(self.plotted_mask().sum()) / self.region.voxel_count

    def mean_steps(self) -> float:
        return float(self.steps.mean())


@dataclass
class FieldStack:
    """The ClassificationFields of several cells from one scan.

    tags and steps are shaped (cells, nz, ny, nx); fields[i] is cell i's
    ClassificationField, a view of those arrays with params[i].
    """

    region: Region3
    embedding: Embedding
    params: tuple[ClassifierParams, ...]
    tags: np.ndarray
    steps: np.ndarray

    @property
    def fields(self) -> list[ClassificationField]:
        return [
            ClassificationField(self.region, self.embedding, p, t, s)
            for p, t, s in zip(self.params, self.tags, self.steps)
        ]


def run_chunks(run: Callable[[int, int], None], total: int, workers: int) -> None:
    """Call run(lo, hi) once for each _CHUNK-long slice of range(total).

    _CHUNK is the one batch size: scan batches voxels, and cast_rays
    batches pixels (by flat index) for its march, then hits for its
    refine, so a batch never grows with the region or the image.  The
    slices depend only on total, never on workers, and each lane's
    result depends only on its own seed, so a run that writes just its
    own slice of the output gives the same bytes for any worker count or
    partition.  The first error raised by a chunk, in slice order, is
    re-raised.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run, lo, min(lo + _CHUNK, total))
            for lo in range(0, total, _CHUNK)
        ]
        try:
            for fut in futures:
                fut.result()
        except BaseException:
            # stop at the first failure instead of running the queued chunks
            pool.shutdown(cancel_futures=True)
            raise


def scan(
    F: QRationalMap,
    region: Region3,
    emb: Embedding,
    params: ClassifierParams | Sequence[ClassifierParams],
    workers: int = 1,
) -> ClassificationField | FieldStack:
    """Classify every voxel of the region; same bytes for any worker count.

    One ClassifierParams gives a ClassificationField.  A sequence of them
    (one shared method; radii and max_iter in any order, repeats allowed)
    gives a FieldStack with one cell per entry, all answered by a single
    orbit pass per voxel, with the same tags and steps as separate scans.
    """
    single = isinstance(params, ClassifierParams)
    cells = (params,) if single else tuple(params)
    if not cells:
        raise ValueError("scan needs at least one ClassifierParams")
    method = cells[0].method
    if any(p.method is not method for p in cells):
        raise ValueError("all cells of one scan must share a classifier method")
    radius_iter = [(p.radius, p.max_iter) for p in cells]
    nx, ny, nz = region.resolution
    total = region.voxel_count
    tags = np.empty((len(cells), total), dtype=np.uint8)
    steps = np.empty((len(cells), total), dtype=np.uint32)
    dx, dy, dz = region.step(0), region.step(1), region.step(2)

    def run_chunk(lo: int, hi: int) -> None:
        flat = np.arange(lo, hi)
        ix = flat % nx
        iy = (flat // nx) % ny
        iz = flat // (nx * ny)
        xs = region.min[0] + ix.astype(np.float64) * dx
        ys = region.min[1] + iy.astype(np.float64) * dy
        zs = region.min[2] + iz.astype(np.float64) * dz
        hr, hm, hn, hp = _embed_batch(emb, xs, ys, zs)
        tags[:, lo:hi], steps[:, lo:hi] = _classify_cells(
            F, method, radius_iter, hr, hm, hn, hp
        )

    run_chunks(run_chunk, total, workers)

    shape = (len(cells), nz, ny, nx)
    stack = FieldStack(region, emb, cells, tags.reshape(shape), steps.reshape(shape))
    return stack.fields[0] if single else stack


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


def save_csv(field: ClassificationField, path) -> None:
    """Text dump, one voxel per row in x-fastest order."""
    iy, ix = np.indices(field.tags.shape[1:]).reshape(2, -1).tolist()
    # tags are OutcomeKind values 0..3, so a tag indexes this list
    labels = [OUTCOME_LABELS[kind] for kind in OutcomeKind]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("ix,iy,iz,outcome,steps\n")
        # one z-layer at a time: whole-field Python lists cost ~12 MB at 65^3
        for iz, (tags, steps) in enumerate(zip(field.tags, field.steps)):
            rows = zip(ix, iy, tags.ravel().tolist(), steps.ravel().tolist())
            fh.writelines(f"{x},{y},{iz},{labels[t]},{n}\n" for x, y, t, n in rows)


def save_raw(field: ClassificationField, path) -> None:
    """Binary dump: magic, u32le resolution, then (u8 tag, u32le steps) records."""
    nx, ny, nz = field.region.resolution
    rec = np.empty(field.region.voxel_count, dtype=np.dtype([("tag", "u1"), ("steps", "<u4")]))
    rec["tag"] = field.tags.ravel()
    rec["steps"] = field.steps.ravel()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<3I", nx, ny, nz))
        fh.write(rec.tobytes())


def load_raw(path) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Read a save_raw file back as (tags, steps, resolution)."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16 or head[:4] != _MAGIC:
            raise ValueError("not a QJF1 field file")
        nx, ny, nz = struct.unpack("<3I", head[4:])
        rec = np.frombuffer(
            fh.read(), dtype=np.dtype([("tag", "u1"), ("steps", "<u4")])
        )
    if rec.size != nx * ny * nz:
        raise ValueError("field file truncated")
    tags = rec["tag"].reshape(nz, ny, nx).copy()
    steps = rec["steps"].reshape(nz, ny, nx).copy()
    return tags, steps, (nx, ny, nz)
