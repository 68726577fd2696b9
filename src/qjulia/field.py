"""Volume scanning: classify every voxel of a 3-D region.

Grid points (voxel corners, min + i*delta) are embedded into quaternion
space (``embed_coords`` on floats and ``embed_batch`` on arrays share
one component assignment), classified in batches by
``dynamics.classify_cells``, and collected into a ClassificationField of
outcome tags and step counts.  A sequence of ClassifierParams cells (a
sweep) gives a FieldStack from one orbit pass per voxel.

The flat voxel index space is cut into fixed-size chunks whose
boundaries never depend on how many workers run.  ``scan``'s workers
are the calling process and forked children (``run_forked``): each runs
one contiguous share of the chunks and writes them into output arrays
that live in shared anonymous memory, so no locking is needed and no
result is copied back.  ``cast_rays``' march and refine still run their
chunks on threads (``run_chunks``).

``save_csv`` and ``save_raw`` write a field as text or as QJF1;
``load_raw``, which nothing in the package calls, is the QJF1 reader.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qjulia import dynamics
from qjulia.quat import Quaternion
from qjulia.dynamics import (
    ClassifierParams,
    OrbitOutcome,
    OutcomeKind,
    OUTCOME_LABELS,
    QRationalMap,
)

_CHUNK = 4096
_MAGIC = b"QJF1"
_RECORD = np.dtype([("tag", "u1"), ("steps", "<u4")])

_COMPONENTS = ("r", "m", "n", "p")


@dataclass(frozen=True)
class Region3:
    min: tuple[float, float, float]
    max: tuple[float, float, float]
    resolution: tuple[int, int, int]

    def __post_init__(self):
        for axis, (lo, hi, r) in enumerate(zip(self.min, self.max, self.resolution)):
            if not lo < hi:
                raise ValueError("region min must be strictly below max")
            if r < 2:
                raise ValueError("resolution components must be >= 2")
            if r - 1 > sys.float_info.max:
                raise ValueError("resolution components must fit a float")
            # an extent can overflow, a step underflow, and a finite step
            # round the far corner beyond the float range
            if not (self.step(axis) > 0.0 and math.isfinite(self.coord(axis, r - 1))):
                raise ValueError("grid step must be positive and every coordinate finite")

    def step(self, axis: int) -> float:
        return (self.max[axis] - self.min[axis]) / (self.resolution[axis] - 1)

    def coord(self, axis: int, index):
        """Grid coordinate along axis of an int index or an int array."""
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
        # membership in the tuple compares with ==, so a non-string axis
        # fails it before set() could meet an unhashable one
        if any(a not in _COMPONENTS for a in self.axes) or len(set(self.axes)) != 3:
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


def embed_batch(emb: Embedding, xs, ys, zs):
    """Array version of embed_coords; returns the four component arrays."""
    return _embed(emb, xs, ys, zs, np.full_like(xs, emb.fixed_value))


@dataclass
class ClassificationField:
    """Per-voxel outcome tags and step counts, shaped (nz, ny, nx).

    Flattening in C order yields the canonical x-fastest voxel order
    (flat index = ix + nx*(iy + ny*iz)).
    """

    region: Region3
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
    params: tuple[ClassifierParams, ...]
    tags: np.ndarray
    steps: np.ndarray

    @property
    def fields(self) -> list[ClassificationField]:
        return [
            ClassificationField(self.region, p, t, s)
            for p, t, s in zip(self.params, self.tags, self.steps)
        ]


def _slices(total: int, workers: int) -> list[tuple[int, int]]:
    """The _CHUNK-long slices (lo, hi) of range(total), in order.

    _CHUNK is the one batch size: scan batches voxels, and cast_rays
    batches pixels (by flat index) for its march, then hits for its
    refine, so a batch never grows with the region or the image.  The
    slices depend only on total, never on workers, and each lane's
    result depends only on its own seed, so a run that writes just its
    own slice of the output gives the same bytes for any worker count or
    partition.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]


def _shared(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in anonymous shared memory: what a forked child
    writes into it, the parent sees."""
    dtype = np.dtype(dtype)
    size = dtype.itemsize * int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


def run_chunks(run: Callable[[int, int], None], total: int, workers: int) -> None:
    """Call run(lo, hi) once for each slice of range(total) (see _slices)
    on a pool of `workers` threads.

    cast_rays' runner: its march and refine write ordinary arrays.
    Threads scale badly here, since numpy holds the GIL between the small
    ops of a batch; scan uses run_forked instead.  The first error raised
    by a chunk, in slice order, is re-raised, and the chunks still queued
    never run.
    """
    from concurrent.futures import ThreadPoolExecutor

    slices = _slices(total, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(lambda s: run(*s), slices):
            pass


def run_forked(run: Callable[[int, int], None], total: int, workers: int) -> None:
    """Call run(lo, hi) once for each slice of range(total) (see _slices)
    in min(workers, slices) processes: the caller and forked children.

    scan's runner.  The slices are cut into contiguous shares, in order,
    whose sizes differ by at most one (one share without os.fork).  A
    child is forked for each share but the first, which the caller then
    runs, so no child inherits its batch temporaries.  run must write into
    memory the caller shares (scan's arrays live in an anonymous mmap).
    Each share stops at its first failing slice.  The first failure in
    share order, the lowest failing slice, is re-raised; a child that died
    otherwise, say by a signal, is a ChildProcessError.  When the caller's
    share fails or is interrupted, it kills the children before it reaps.
    """
    slices = _slices(total, workers)
    procs = max(min(workers, len(slices)), 1) if hasattr(os, "fork") else 1
    cuts = [len(slices) * k // procs for k in range(procs + 1)]
    shares = [slices[a:b] for a, b in zip(cuts, cuts[1:])]
    children = []  # (pid, read end of its report pipe), in share order
    try:
        for share in shares[1:]:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(run, share, wfd)
            except BaseException:
                os.close(rfd)
                raise
            finally:
                os.close(wfd)
            children.append((pid, rfd))
        for lo, hi in shares[0]:
            run(lo, hi)
        reports = []
        for _, rfd in children:
            with open(rfd, "rb", closefd=False) as pipe:
                reports.append(pipe.read())
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, rfd in children:
            os.close(rfd)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for report, code in zip(reports, codes):
        if report and code == 1:
            raise pickle.loads(report)
        if code < 0:
            import signal

            raise ChildProcessError(f"scan worker killed by {signal.Signals(-code).name}")
        if code != 0:
            raise ChildProcessError(f"scan worker exited with status {code}")


def _child(run: Callable[[int, int], None], share, wfd: int):
    """A forked worker's whole life: run its share of slices, write the
    first failure as a pickled exception to wfd, and leave by os._exit,
    so it never returns into the caller's frames or flushes the stdio
    buffers it shares with the parent."""
    status = 1
    try:
        for lo, hi in share:
            try:
                run(lo, hi)
            except BaseException as exc:
                report = exc
                try:
                    # the parent must be able to rebuild what it reads
                    pickle.loads(pickle.dumps(report))
                except Exception:
                    report = ChildProcessError(f"scan worker failed: {exc!r}")
                with open(wfd, "wb", closefd=False) as pipe:
                    pickle.dump(report, pipe)
                break
        else:
            status = 0
    finally:
        os._exit(status)


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
    The workers are this process and forked children (run_forked), each
    writing the tags and steps of one contiguous share of the chunks;
    those arrays live in shared anonymous memory, so the caller reads the
    children's writes directly.
    """
    single = isinstance(params, ClassifierParams)
    cells = (params,) if single else tuple(params)
    if not cells:
        raise ValueError("scan needs at least one ClassifierParams")
    if any(p.method is not cells[0].method for p in cells):
        raise ValueError("all cells of one scan must share a classifier method")
    nx, ny, nz = region.resolution
    total = region.voxel_count
    tags = _shared((len(cells), total), np.uint8)
    steps = _shared((len(cells), total), np.uint32)

    def run_chunk(lo: int, hi: int) -> None:
        flat = np.arange(lo, hi)
        ix, iy, iz = flat % nx, (flat // nx) % ny, flat // (nx * ny)
        q = embed_batch(emb, region.coord(0, ix), region.coord(1, iy), region.coord(2, iz))
        tags[:, lo:hi], steps[:, lo:hi] = dynamics.classify_cells(F, cells, *q)

    run_forked(run_chunk, total, workers)

    shape = (len(cells), nz, ny, nx)
    stack = FieldStack(region, cells, tags.reshape(shape), steps.reshape(shape))
    return stack.fields[0] if single else stack


def save_csv(field: ClassificationField, path) -> None:
    """Text dump, one voxel per row in x-fastest order."""
    ny, nx = field.tags.shape[1:]
    # every layer's rows start with the same "ix,iy," prefixes
    prefixes = [f"{x},{y}," for y in range(ny) for x in range(nx)]
    # tags are OutcomeKind values 0..3, so a tag indexes this list
    labels = [OUTCOME_LABELS[kind] for kind in OutcomeKind]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("ix,iy,iz,outcome,steps\n")
        # one z-layer at a time: whole-field Python lists cost ~12 MB at 65^3
        for iz, (tags, steps) in enumerate(zip(field.tags, field.steps)):
            middles = [f"{iz},{label}," for label in labels]
            rows = zip(prefixes, tags.ravel().tolist(), steps.ravel().tolist())
            fh.writelines(f"{p}{middles[t]}{n}\n" for p, t, n in rows)


def save_raw(field: ClassificationField, path) -> None:
    """Binary dump: magic, u32le resolution, then (u8 tag, u32le steps) records."""
    nx, ny, nz = field.region.resolution
    rec = np.empty(field.region.voxel_count, dtype=_RECORD)
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
        payload = fh.read()
    size = nx * ny * nz * _RECORD.itemsize
    if len(payload) < size:
        raise ValueError(f"field file short: {len(payload)} of {size} record bytes")
    if len(payload) > size:
        raise ValueError(f"field file has {len(payload) - size} trailing bytes")
    rec = np.frombuffer(payload, dtype=_RECORD)
    tags = rec["tag"].reshape(nz, ny, nx).copy()
    if tags.max(initial=0) > max(OutcomeKind):
        raise ValueError(f"field file has an unknown outcome tag {tags.max()}")
    steps = rec["steps"].reshape(nz, ny, nx).copy()
    return tags, steps, (nx, ny, nz)
