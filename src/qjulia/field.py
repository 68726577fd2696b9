"""Volume scanning: classify every voxel of a 3-D region.

Grid points (voxel corners, min + i*delta) are embedded into quaternion
space, classified in vectorized batches, and collected into a
ClassificationField of outcome tags and step counts.  The batch code in
this module replays ``dynamics.classify`` expression by expression so
that scalar and vectorized classification agree bit for bit; that exact
agreement is what makes scan results independent of the worker count.

Workers split the flat voxel index space into fixed-size chunks and
write disjoint slices of the output arrays, so no locking is needed and
the chunk boundaries never depend on how many workers run.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

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
_PENDING = np.uint8(255)

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


def embed_coords(emb: Embedding, x: float, y: float, z: float) -> Quaternion:
    parts = {emb.fixed_component: emb.fixed_value}
    parts[emb.axes[0]] = x
    parts[emb.axes[1]] = y
    parts[emb.axes[2]] = z
    return Quaternion(parts["r"], parts["m"], parts["n"], parts["p"])


def embed(region: Region3, emb: Embedding, ix: int, iy: int, iz: int) -> Quaternion:
    return embed_coords(
        emb, region.coord(0, ix), region.coord(1, iy), region.coord(2, iz)
    )


def _embed_batch(emb: Embedding, xs, ys, zs):
    """Array version of embed_coords; returns the four component arrays."""
    fixed = np.full_like(xs, emb.fixed_value)
    parts = {emb.fixed_component: fixed}
    parts[emb.axes[0]] = xs
    parts[emb.axes[1]] = ys
    parts[emb.axes[2]] = zs
    return parts["r"], parts["m"], parts["n"], parts["p"]


def _eval_poly_batch(coeffs: tuple[Quaternion, ...], hr, hm, hn, hp):
    # Horner, mirroring dynamics.eval_poly
    c = coeffs[-1]
    ar = np.full_like(hr, c.r)
    am = np.full_like(hr, c.m)
    an = np.full_like(hr, c.n)
    ap = np.full_like(hr, c.p)
    for k in range(len(coeffs) - 2, -1, -1):
        r = ar * hr - am * hm - an * hn - ap * hp
        m = ar * hm + am * hr + an * hp - ap * hn
        n = ar * hn - am * hp + an * hr + ap * hm
        p = ar * hp + am * hn - an * hm + ap * hr
        c = coeffs[k]
        ar = r + c.r
        am = m + c.m
        an = n + c.n
        ap = p + c.p
    return ar, am, an, ap


def _step_batch(F: QRationalMap, hr, hm, hn, hp):
    """One map application on a batch; returns components plus pole mask."""
    with np.errstate(all="ignore"):
        nr, nm, nn, npp = _eval_poly_batch(F.numerator.coeffs, hr, hm, hn, hp)
        dr, dm, dn, dp = _eval_poly_batch(F.denominator.coeffs, hr, hm, hn, hp)
        ns = dr * dr + dm * dm + dn * dn + dp * dp
        pole = ~(ns > EPS_DIV)
        ir = dr / ns
        im = -dm / ns
        in_ = -dn / ns
        ip = -dp / ns
        br = nr * ir - nm * im - nn * in_ - npp * ip
        bm = nr * im + nm * ir + nn * ip - npp * in_
        bn = nr * in_ - nm * ip + nn * ir + npp * im
        bp = nr * ip + nm * in_ - nn * im + npp * ir
    return br, bm, bn, bp, pole


def _classify_batch(F: QRationalMap, params: ClassifierParams, hr, hm, hn, hp):
    """Vectorized dynamics.classify over component arrays.

    Mirrors the scalar function's single orbit loop: pole and overflow
    bookkeeping is shared, and only the per-step test branches on the
    method (escape time records each lane's first step outside the ball
    and decides on the final iterate's norm; cut-off rate retires lanes
    at the first |p_n - p_{n-1}| < radius).

    Returns (tags uint8, steps uint32).  Lanes drop out of the working
    set as they resolve; per-lane values never depend on other lanes, so
    any partition of seeds into batches gives identical results.
    """
    count = hr.size
    tags = np.full(count, _PENDING, dtype=np.uint8)
    steps = np.zeros(count, dtype=np.uint32)
    idx = np.arange(count)
    escape = params.method is ClassifierMethod.ESCAPE_TIME
    first_out = np.zeros(count, dtype=np.uint32)

    prev = (hr, hm, hn, hp)
    for n in range(1, params.max_iter + 1):
        br, bm, bn, bp, pole = _step_batch(F, *prev)
        finite = np.isfinite(br) & np.isfinite(bm) & np.isfinite(bn) & np.isfinite(bp)
        blown = ~finite & ~pole
        if pole.any():
            tags[idx[pole]] = OutcomeKind.POLE_HIT
            steps[idx[pole]] = n
        if blown.any():
            g = idx[blown]
            fo = first_out[g]
            tags[g] = OutcomeKind.ESCAPED
            steps[g] = np.where(fo != 0, fo, n)
        keep = finite & ~pole
        if escape:
            with np.errstate(all="ignore"):
                norm = np.sqrt(br * br + bm * bm + bn * bn + bp * bp)
            newly = keep & (first_out[idx] == 0) & (norm > params.radius)
            if newly.any():
                first_out[idx[newly]] = n
        else:
            with np.errstate(all="ignore"):
                dr = br - prev[0]
                dm = bm - prev[1]
                dn = bn - prev[2]
                dp = bp - prev[3]
                dist = np.sqrt(dr * dr + dm * dm + dn * dn + dp * dp)
                conv = keep & (dist < params.radius)
            if conv.any():
                tags[idx[conv]] = OutcomeKind.CONVERGED
                steps[idx[conv]] = n
            keep &= ~conv
        idx = idx[keep]
        if idx.size == 0:
            break
        prev = (br[keep], bm[keep], bn[keep], bp[keep])
    if escape and idx.size:
        pr, pm, pn, pp = prev
        with np.errstate(over="ignore"):
            out = np.sqrt(pr * pr + pm * pm + pn * pn + pp * pp) > params.radius
        g = idx[out]
        tags[g] = OutcomeKind.ESCAPED
        steps[g] = first_out[g]
        idx = idx[~out]
    tags[idx] = OutcomeKind.INDETERMINATE
    steps[idx] = params.max_iter
    return tags, steps


def plotted_bits(tags: np.ndarray, steps: np.ndarray, params: ClassifierParams) -> np.ndarray:
    """Array form of dynamics.is_plotted over outcome tags and step counts."""
    if params.method is ClassifierMethod.ESCAPE_TIME:
        return tags == OutcomeKind.INDETERMINATE
    return (tags == OutcomeKind.INDETERMINATE) | (
        (tags == OutcomeKind.CONVERGED) & (steps >= params.cutoff_count)
    )


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
        return plotted_bits(self.tags, self.steps, self.params)

    def counts(self) -> dict[OutcomeKind, int]:
        return {kind: int((self.tags == kind).sum()) for kind in OutcomeKind}

    def fraction(self, kind: OutcomeKind) -> float:
        return int((self.tags == kind).sum()) / self.region.voxel_count

    def fraction_plotted(self) -> float:
        return float(self.plotted_mask().sum()) / self.region.voxel_count

    def mean_steps(self) -> float:
        return float(self.steps.mean())


def run_chunks(
    run: Callable[[int, int], None], total: int, size: int, workers: int
) -> None:
    """Call run(lo, hi) once for each size-long slice of range(total).

    The slices depend only on total and size, never on workers, so a run
    that writes just its own slice of the output gives the same bytes for
    any worker count.  The first error raised by a chunk, in slice order,
    is re-raised.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run, lo, min(lo + size, total))
            for lo in range(0, total, size)
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
    params: ClassifierParams,
    workers: int = 1,
) -> ClassificationField:
    """Classify every voxel of the region; same bytes for any worker count."""
    nx, ny, nz = region.resolution
    total = region.voxel_count
    tags = np.empty(total, dtype=np.uint8)
    steps = np.empty(total, dtype=np.uint32)
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
        tags[lo:hi], steps[lo:hi] = _classify_batch(F, params, hr, hm, hn, hp)

    run_chunks(run_chunk, total, _CHUNK, workers)

    return ClassificationField(
        region, emb, params, tags.reshape(nz, ny, nx), steps.reshape(nz, ny, nx)
    )


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
    nx, ny, nz = field.region.resolution
    flat_tags = field.tags.ravel()
    flat_steps = field.steps.ravel()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("ix,iy,iz,outcome,steps\n")
        i = 0
        for iz in range(nz):
            for iy in range(ny):
                for ix in range(nx):
                    label = OUTCOME_LABELS[OutcomeKind(int(flat_tags[i]))]
                    fh.write(f"{ix},{iy},{iz},{label},{int(flat_steps[i])}\n")
                    i += 1


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
