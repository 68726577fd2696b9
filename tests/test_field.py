import itertools
import os
import random
import signal
import struct
import sys
import time

import numpy as np
import pytest

from qjulia import dynamics as dyn
from qjulia import field as fld
from qjulia import quat
from qjulia.dynamics import ClassifierMethod, ClassifierParams, OutcomeKind
from qjulia.quat import Quaternion


NEWTON = dyn.newton_transform(dyn.QPolynomial.from_coeffs([-1.0, 0.0, 0.0, 1.0]))
SQUARE = dyn.quadratic_map(1.0, 0.0)
CO = ClassifierParams(ClassifierMethod.CUTOFF_RATE, 1e-3, 50, 25)
ET = ClassifierParams(ClassifierMethod.ESCAPE_TIME, 2.0, 24)

BOX = fld.Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (9, 9, 9))


def test_region_validation():
    with pytest.raises(ValueError):
        fld.Region3((0.0, 0.0, 0.0), (0.0, 1.0, 1.0), (4, 4, 4))
    with pytest.raises(ValueError):
        fld.Region3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1, 4, 4))
    # no float step: the extent overflows, the resolution has no float, or
    # the far corner rounds beyond the float range
    for lo, hi, res in [(-1e308, 1e308, 3), (-2.0, 2.0, 10**400), (0.0, sys.float_info.max, 4)]:
        with pytest.raises(ValueError):
            fld.Region3((lo, 0.0, 0.0), (hi, 1.0, 1.0), (res, 4, 4))
    r = fld.Region3((-1.0, 0.0, 0.0), (1.0, 1.0, 2.0), (5, 3, 2))
    assert r.step(0) == 0.5
    assert r.coord(0, 4) == 1.0
    assert r.voxel_count == 30


def test_embedding_validation():
    with pytest.raises(ValueError):
        fld.Embedding(("r", "r", "m"))
    with pytest.raises(ValueError):
        fld.Embedding(("r", "m", "q"))
    assert fld.DEFAULT_EMBEDDING.fixed_component == "p"


def test_embed_examples():
    region = fld.Region3((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (3, 3, 3))
    emb = fld.DEFAULT_EMBEDDING
    assert fld.embed(region, emb, 1, 1, 1) == quat.ZERO
    assert fld.embed(region, emb, 0, 0, 0) == Quaternion(-1, -1, -1, 0)
    perm = fld.Embedding(("m", "n", "p"), 0.5)
    assert perm.fixed_component == "r"
    assert fld.embed(region, perm, 2, 0, 0) == Quaternion(0.5, 1, -1, -1)


def test_scan_totality_and_postcondition():
    for F, params in [(NEWTON, CO), (SQUARE, ET)]:
        f = fld.scan(F, BOX, fld.DEFAULT_EMBEDDING, params)
        assert f.tags.shape == (9, 9, 9)
        assert (f.tags != 255).all()
        rng = random.Random(7)
        for _ in range(60):
            ix, iy, iz = (rng.randrange(9) for _ in range(3))
            got = f.outcome(ix, iy, iz)
            want = dyn.classify(F, fld.embed(BOX, fld.DEFAULT_EMBEDDING, ix, iy, iz), params)
            assert (got.kind, got.steps) == (want.kind, want.steps)


def test_scan_corner_escapes_immediately():
    region = fld.Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (2, 2, 2))
    f = fld.scan(SQUARE, region, fld.DEFAULT_EMBEDDING, ET)
    out = f.outcome(1, 1, 1)
    assert (out.kind, out.steps) == (OutcomeKind.ESCAPED, 1)


def _final_norm_escapes(params):
    """Escaped voxels of the criterion-4 grid (33^3 Newton scan).

    Their orbits stay finite, so they are Escaped only because the final
    iterate lies outside the ball; random seeds never reach that branch.
    """
    region = fld.Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (33, 33, 33))
    f = fld.scan(NEWTON, region, fld.DEFAULT_EMBEDDING, params)
    iz, iy, ix = np.nonzero(f.tags == OutcomeKind.ESCAPED)
    seeds = [
        fld.embed(region, fld.DEFAULT_EMBEDDING, int(x), int(y), int(z))
        for x, y, z in zip(ix, iy, iz)
    ]
    assert seeds
    for last in seeds:
        # these orbits meet no pole, so every step is one eval_map
        for _ in range(params.max_iter):
            last = dyn.eval_map(NEWTON, last)
        assert quat.is_finite(last) and quat.norm(last) > params.radius
    return seeds


def test_batch_matches_scalar_on_random_seeds():
    rng = random.Random(123)
    seeds = [
        Quaternion(
            rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)
        )
        for _ in range(500)
    ]
    escape_r4 = dyn.ClassifierParams(ClassifierMethod.ESCAPE_TIME, 4.0, 24)
    # one-coefficient numerator and denominator: both evaluate to floats
    constant = dyn.rational_map([0.5], [2.0])
    # 3h^2 overflows to inf - inf, so |Q(h)|^2 is NaN, which is a pole
    nan_norm = Quaternion(1e200, 1e200, 0.0, 0.0)
    cases = [
        (NEWTON, CO, seeds + [nan_norm]),
        (NEWTON, escape_r4, seeds + _final_norm_escapes(escape_r4)),
        (SQUARE, ET, seeds),
        (constant, CO, seeds),
        (constant, ET, seeds),
    ]
    for F, params, batch in cases:
        hr = np.array([s.r for s in batch])
        hm = np.array([s.m for s in batch])
        hn = np.array([s.n for s in batch])
        hp = np.array([s.p for s in batch])
        (tags,), (steps,) = dyn.classify_cells(F, (params,), hr, hm, hn, hp)
        for i, s in enumerate(batch):
            want = dyn.classify(F, s, params)
            assert (OutcomeKind(int(tags[i])), int(steps[i])) == (want.kind, want.steps)


def test_scan_worker_count_invariance():
    region = fld.Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (17, 17, 17))
    base = fld.scan(NEWTON, region, fld.DEFAULT_EMBEDDING, CO, workers=1)
    for w in (2, 8):
        other = fld.scan(NEWTON, region, fld.DEFAULT_EMBEDDING, CO, workers=w)
        assert np.array_equal(base.tags, other.tags)
        assert np.array_equal(base.steps, other.steps)
    with pytest.raises(ValueError):
        fld.scan(NEWTON, region, fld.DEFAULT_EMBEDDING, CO, workers=0)


# h^2 + 1/h: a pole at the origin, and orbits far from it overflow
POLE_OVERFLOW = dyn.rational_map([1.0, 0.0, 0.0, 1.0], [0.0, 1.0])
# both grids hold the origin (a pole of each map) at their centre voxel
CELL_GRIDS = {
    "newton-33": (NEWTON, fld.Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (33, 33, 33))),
    "pole-overflow-17": (
        POLE_OVERFLOW, fld.Region3((-3.0, -3.0, -3.0), (3.0, 3.0, 3.0), (17, 17, 17))
    ),
}
# unsorted radii and counts, a repeated cell, and max_iter 1
CELLS = [(2.0, 12), (1e-3, 5), (2.0, 12), (0.5, 1), (1e-3, 24), (4.0, 7)]


def _cells(method):
    return [ClassifierParams(method, radius, max_iter) for radius, max_iter in CELLS]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("method", list(ClassifierMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("grid", sorted(CELL_GRIDS))
def test_scan_over_cells_matches_separate_scans(grid, method, workers):
    F, region = CELL_GRIDS[grid]
    cells = _cells(method)
    stack = fld.scan(F, region, fld.DEFAULT_EMBEDDING, cells, workers=workers)
    nx, ny, nz = region.resolution
    assert stack.tags.shape == stack.steps.shape == (len(cells), nz, ny, nx)
    assert len(stack.fields) == len(cells)
    for params, got in zip(cells, stack.fields):
        want = fld.scan(F, region, fld.DEFAULT_EMBEDDING, params, workers=workers)
        assert got.params == params
        assert np.array_equal(got.tags, want.tags)
        assert np.array_equal(got.steps, want.steps)
    centre = (nz // 2, ny // 2, nx // 2)
    assert (stack.tags[(slice(None),) + centre] == OutcomeKind.POLE_HIT).all()
    if F is POLE_OVERFLOW and method is ClassifierMethod.CUTOFF_RATE:
        # cut-off rate has no ball, so these all come from overflow
        assert (stack.tags == OutcomeKind.ESCAPED).any()


@pytest.mark.parametrize("method", list(ClassifierMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("grid", sorted(CELL_GRIDS))
def test_scan_over_cells_matches_scalar_classify(grid, method):
    F, region = CELL_GRIDS[grid]
    cells = _cells(method)
    stack = fld.scan(F, region, fld.DEFAULT_EMBEDDING, cells, workers=2)
    nx, ny, nz = region.resolution
    rng = random.Random(f"{grid}:{method.value}")
    escaped = np.flatnonzero((stack.tags == OutcomeKind.ESCAPED).any(axis=0))
    sample = rng.sample(range(region.voxel_count), 120) + [region.voxel_count // 2]
    sample += [int(i) for i in escaped[:: max(1, escaped.size // 20)]]
    for flat in sample:
        ix, iy, iz = flat % nx, (flat // nx) % ny, flat // (nx * ny)
        seed = fld.embed(region, fld.DEFAULT_EMBEDDING, ix, iy, iz)
        for c, params in enumerate(cells):
            want = dyn.classify(F, seed, params)
            got = (OutcomeKind(int(stack.tags[c, iz, iy, ix])), int(stack.steps[c, iz, iy, ix]))
            assert got == (want.kind, want.steps), (flat, params)


def test_scan_over_cells_rejects_empty_and_mixed_methods():
    with pytest.raises(ValueError):
        fld.scan(NEWTON, BOX, fld.DEFAULT_EMBEDDING, [])
    with pytest.raises(ValueError):
        fld.scan(NEWTON, BOX, fld.DEFAULT_EMBEDDING, [CO, ET])


@pytest.mark.parametrize("workers", [1, 2])
def test_run_chunks_calls_each_slice_once_and_reraises(workers, monkeypatch):
    monkeypatch.setattr(fld, "_CHUNK", 4)
    seen = []
    fld.run_chunks(lambda lo, hi: seen.append((lo, hi)), 10, workers)
    assert sorted(seen) == [(0, 4), (4, 8), (8, 10)]

    def fail_second(lo, hi):
        if lo == 4:
            raise RuntimeError("chunk 4..8 failed")

    with pytest.raises(RuntimeError, match="chunk 4..8 failed"):
        fld.run_chunks(fail_second, 10, workers)


@pytest.mark.parametrize("chunk", [4, 37])
@pytest.mark.parametrize("workers", [1, 2, 3, 64])
@pytest.mark.parametrize("slices", [1, 11])
def test_run_forked_runs_each_slice_once(slices, workers, chunk, monkeypatch):
    monkeypatch.setattr(fld, "_CHUNK", chunk)
    # a ragged last slice
    total = (slices - 1) * chunk + 3
    runs = fld._shared((slices,), np.int64)
    ends = fld._shared((slices,), np.int64)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    def run(lo, hi):
        runs[lo // chunk] += 1
        ends[lo // chunk] = hi

    monkeypatch.setattr(os, "fork", counting_fork)
    fld.run_forked(run, total, workers)
    assert runs.tolist() == [1] * slices
    assert ends.tolist() == [min(lo + chunk, total) for lo in range(0, total, chunk)]
    # the caller runs the first share itself
    assert len(forks) == max(min(workers, slices) - 1, 0)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_forked_reraises_a_slices_error(workers, monkeypatch):
    monkeypatch.setattr(fld, "_CHUNK", 4)
    runs = fld._shared((5,), np.int64)

    def fail_second(lo, hi):
        runs[lo // 4] += 1
        if lo == 4:
            raise RuntimeError("chunk 4..8 failed")

    with pytest.raises(RuntimeError, match="^chunk 4..8 failed$"):
        fld.run_forked(fail_second, 20, workers)
    # the slices after 4..8 in its share never ran; at 2 workers the
    # caller's own share fails, and whether the child reached its later
    # slices before it was killed is a race
    cuts = [5 * k // workers for k in range(workers + 1)]
    share = next(range(a, b) for a, b in zip(cuts, cuts[1:]) if a <= 1 < b)
    assert runs[1] == 1
    assert all(runs[i] == 0 for i in share if i > 1)


@pytest.mark.parametrize("workers", [2, 3])
def test_run_forked_reraises_the_lowest_slices_error(workers, monkeypatch):
    # at 3 workers one child fails at 4 and another at 8, and the caller
    # re-raises the failure of the earlier share whichever ends first
    monkeypatch.setattr(fld, "_CHUNK", 4)

    def fail_from_4(lo, hi):
        if lo >= 4:
            raise (KeyError if lo == 4 else OSError)(f"slice {lo}")

    with pytest.raises(KeyError, match="slice 4"):
        fld.run_forked(fail_from_4, 10, workers)


def test_run_forked_unpicklable_error_is_a_child_process_error(monkeypatch):
    class Local(Exception):
        pass

    def fail_at_4(lo, hi):
        if lo == 4:
            raise Local("no import path")

    monkeypatch.setattr(fld, "_CHUNK", 4)
    with pytest.raises(ChildProcessError, match=r"Local\('no import path'\)"):
        fld.run_forked(fail_at_4, 10, 2)


@pytest.mark.parametrize("die, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "scan worker killed by SIGKILL"),
    (lambda: os._exit(3), "scan worker exited with status 3"),
], ids=["signal", "exit"])
def test_run_forked_child_that_dies_is_a_child_process_error(die, message, monkeypatch):
    monkeypatch.setattr(fld, "_CHUNK", 4)

    def die_at_4(lo, hi):
        if lo == 4:
            die()

    with pytest.raises(ChildProcessError, match=f"^{message}$"):
        fld.run_forked(die_at_4, 10, 2)


def test_run_forked_interrupted_parent_kills_and_reaps(monkeypatch):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(fld, "_CHUNK", 4)
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    start = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            fld.run_forked(lambda lo, hi: time.sleep(60), 10, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # the children were killed, not waited out
    assert time.perf_counter() - start < 30


def test_run_forked_failing_first_share_kills_and_reaps_the_children(monkeypatch):
    monkeypatch.setattr(fld, "_CHUNK", 4)

    def fail_first(lo, hi):
        if lo == 0:
            raise RuntimeError("first share failed")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="^first share failed$"):
        fld.run_forked(fail_first, 12, 3)
    # the sleeping children were killed, not waited out, and all reaped
    assert time.perf_counter() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_forked_without_fork_runs_every_slice_here_in_order(monkeypatch):
    monkeypatch.setattr(fld, "_CHUNK", 4)
    monkeypatch.delattr(os, "fork")
    seen = []
    fld.run_forked(lambda lo, hi: seen.append((lo, hi, os.getpid())), 10, 3)
    assert seen == [(0, 4, os.getpid()), (4, 8, os.getpid()), (8, 10, os.getpid())]


@pytest.mark.parametrize("workers", [2, 3, 4, 64])
def test_run_forked_runs_contiguous_shares_the_first_in_the_caller(workers, monkeypatch):
    monkeypatch.setattr(fld, "_CHUNK", 4)
    slices = 11
    pids = fld._shared((slices,), np.int64)

    def run(lo, hi):
        pids[lo // 4] = os.getpid()

    fld.run_forked(run, slices * 4 - 1, workers)
    # each pid runs one run of consecutive slices, its share
    runs = itertools.groupby(pids.tolist())
    owners, sizes = zip(*((pid, len(list(group))) for pid, group in runs))
    assert owners[0] == os.getpid()
    assert len(set(owners)) == len(owners) == min(workers, slices)
    assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("chunk", [4, 37])
def test_forked_scan_is_byte_equal_across_workers(chunk, monkeypatch):
    monkeypatch.setattr(fld, "_CHUNK", chunk)
    region = fld.Region3((-2.0, -1.5, -1.0), (2.0, 1.5, 1.0), (9, 7, 5))
    cells = [
        ClassifierParams(ClassifierMethod.ESCAPE_TIME, radius, max_iter)
        for radius, max_iter in [(2.0, 24), (4.0, 7), (2.0, 5)]
    ]
    stacks = [
        fld.scan(NEWTON, region, fld.DEFAULT_EMBEDDING, cells, workers=w)
        for w in (1, 2, 3)
    ]
    for stack in stacks[1:]:
        assert stack.tags.tobytes() == stacks[0].tags.tobytes()
        assert stack.steps.tobytes() == stacks[0].steps.tobytes()


def test_plotted_mask_matches_is_plotted():
    f = fld.scan(NEWTON, BOX, fld.DEFAULT_EMBEDDING, CO)
    mask = f.plotted_mask()
    for iz in range(9):
        for iy in range(9):
            for ix in range(9):
                want = dyn.is_plotted(
                    dyn.classify(NEWTON, fld.embed(BOX, fld.DEFAULT_EMBEDDING, ix, iy, iz), CO),
                    CO,
                )
                assert bool(mask[iz, iy, ix]) == want


def test_field_statistics():
    region = fld.Region3((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (17, 17, 17))
    f = fld.scan(NEWTON, region, fld.DEFAULT_EMBEDDING, CO)
    counts = f.counts()
    assert sum(counts.values()) == region.voxel_count
    assert counts[OutcomeKind.POLE_HIT] == 1
    assert 0.0 < f.fraction_plotted() < 1.0
    assert f.fraction(OutcomeKind.CONVERGED) > 0.5
    assert 0.0 < f.mean_steps() < 50.0


def test_save_csv(tmp_path):
    region = fld.Region3((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), (3, 3, 3))
    f = fld.scan(NEWTON, region, fld.DEFAULT_EMBEDDING, CO)
    path = tmp_path / "field.csv"
    fld.save_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ix,iy,iz,outcome,steps"
    assert len(lines) == 1 + 27
    # x-fastest: second row is voxel (1,0,0)
    assert lines[2].startswith("1,0,0,")
    ix, iy, iz, outcome, steps = lines[14].split(",")
    assert (ix, iy, iz) == ("1", "1", "1")
    assert outcome == "pole_hit" and steps == "1"


def test_save_csv_order_and_labels_on_non_cubic_grid(tmp_path):
    region = fld.Region3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 3, 2))
    flat = np.arange(region.voxel_count)
    f = fld.ClassificationField(
        region,
        CO,
        (flat % 4).astype(np.uint8).reshape(2, 3, 4),
        (flat * 7 + 1).astype(np.uint32).reshape(2, 3, 4),
    )
    assert all(n > 0 for n in f.counts().values())
    path = tmp_path / "field.csv"
    fld.save_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ix,iy,iz,outcome,steps"
    want = []
    for iz in range(2):
        for iy in range(3):
            for ix in range(4):
                o = f.outcome(ix, iy, iz)
                want.append(f"{ix},{iy},{iz},{dyn.OUTCOME_LABELS[o.kind]},{o.steps}")
    assert lines[1:] == want


def test_save_load_raw(tmp_path):
    f = fld.scan(NEWTON, BOX, fld.DEFAULT_EMBEDDING, CO)
    path = tmp_path / "field.qjf"
    fld.save_raw(f, path)
    blob = path.read_bytes()
    assert blob[:4] == b"QJF1"
    assert len(blob) == 16 + 5 * BOX.voxel_count
    tags, steps, res = fld.load_raw(path)
    assert res == (9, 9, 9)
    assert np.array_equal(tags, f.tags)
    assert np.array_equal(steps, f.steps)


def test_load_raw_rejects_garbage(tmp_path):
    path = tmp_path / "bad.qjf"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError):
        fld.load_raw(path)
    path.write_bytes(b"QJF1" + b"\x02\x00\x00\x00" * 3 + b"\x00" * 7)
    with pytest.raises(ValueError):
        fld.load_raw(path)
    # a 1x1x2 field holds two 5-byte (tag, steps) records
    head = b"QJF1" + struct.pack("<3I", 1, 1, 2)
    record = b"\x01" + struct.pack("<I", 3)
    path.write_bytes(head + record + record[:2])
    with pytest.raises(ValueError, match="short"):
        fld.load_raw(path)
    path.write_bytes(head + record * 3)
    with pytest.raises(ValueError, match="trailing bytes"):
        fld.load_raw(path)
    path.write_bytes(head + record + b"\x07" + record[1:])
    with pytest.raises(ValueError, match="unknown outcome tag 7"):
        fld.load_raw(path)
