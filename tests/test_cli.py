import gc
import hashlib
import json
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import MALFORMED_JOBS

from qjulia import dynamics, field, oracle2d, render
from qjulia.cli import main
from qjulia.config import parse_sweep
from qjulia.dynamics import OutcomeKind
from qjulia.field import load_raw


def write_cfg(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def tiny_newton(tmp_path, **overrides):
    data = {
        "map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]},
        "method": "cutoff",
        "region": {"min": [-2, -2, -2], "max": [2, 2, 2], "resolution": [9, 9, 9]},
        "camera": {"viewAxis": "+z", "imageSize": [24, 24]},
        "outputPath": str(tmp_path / "out.ppm"),
    }
    data.update(overrides)
    return write_cfg(tmp_path, "job.json", data)


def tiny_sweep(tmp_path, **overrides):
    """A one-cell sweep over tiny_newton's job."""
    base = json.loads(Path(tiny_newton(tmp_path, **overrides)).read_text())
    return write_cfg(tmp_path, "sweep.json", {"radii": [2.0], "iterationCounts": [5], "base": base})


def _refuse_work(monkeypatch):
    """Make every command's work fail the test if it starts."""

    def work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in [(render, "render_image"), (field, "scan"), (oracle2d, "render_slice2d")]:
        monkeypatch.setattr(module, name, work)


def test_render_writes_ppm(tmp_path, capsys):
    cfg = tiny_newton(tmp_path)
    assert main(["render", cfg, "--workers", "1"]) == 0
    out = tmp_path / "out.ppm"
    data = out.read_bytes()
    assert data.startswith(b"P6\n24 24\n255\n")
    assert len(data) == len(b"P6\n24 24\n255\n") + 24 * 24 * 3
    assert str(out) in capsys.readouterr().out


def test_render_out_override_and_field_dump(tmp_path):
    cfg = tiny_newton(tmp_path)
    img = tmp_path / "elsewhere.ppm"
    raw = tmp_path / "field.qjf"
    assert main(["render", cfg, "--workers", "2", "--out", str(img),
                 "--dump-field", str(raw)]) == 0
    assert img.exists()
    assert not (tmp_path / "out.ppm").exists()
    tags, steps, resolution = load_raw(raw)
    assert resolution == (9, 9, 9)
    assert tags.shape == (9, 9, 9)


def test_render_field_dump_csv(tmp_path):
    cfg = tiny_newton(tmp_path)
    dump = tmp_path / "field.csv"
    assert main(["render", cfg, "--dump-field", str(dump), "--workers", "1"]) == 0
    lines = dump.read_text().splitlines()
    assert lines[0] == "ix,iy,iz,outcome,steps"
    assert len(lines) == 1 + 9 * 9 * 9


def test_failed_field_dump_is_one_error_line_and_keeps_the_image(tmp_path, capsys):
    # the steps are finite, but no mmap holds 2^64 tags: an OverflowError;
    # the image, written before the scan starts, is complete and stays
    region = {"min": [-2, -2, -2], "max": [2, 2, 2], "resolution": [2**62, 2, 2]}
    cfg = tiny_newton(tmp_path, region=region)
    assert main(["render", cfg, "--dump-field", str(tmp_path / "field.qjf")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "out.ppm"]
    assert len((tmp_path / "out.ppm").read_bytes()) == len(b"P6\n24 24\n255\n") + 24 * 24 * 3


def test_render_deterministic_across_workers(tmp_path):
    cfg = tiny_newton(tmp_path)
    a = tmp_path / "a.ppm"
    b = tmp_path / "b.ppm"
    assert main(["render", cfg, "--workers", "1", "--out", str(a)]) == 0
    assert main(["render", cfg, "--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_default_to_one_not_the_cpu_count(tmp_path, monkeypatch):
    seen = []
    render_image = render.render_image

    def spy(*args, **kwargs):
        seen.append(kwargs["workers"])
        return render_image(*args, **kwargs)

    monkeypatch.setattr(render, "render_image", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert main(["render", tiny_newton(tmp_path)]) == 0
    assert main(["render", tiny_newton(tmp_path), "--workers", "2"]) == 0
    assert seen == [1, 2]


def _record_workers(monkeypatch):
    """Spies on both chunk runners: each records its workers and runs the
    slices here, so no process or thread starts."""
    seen = []

    def in_process(run, total, workers):
        seen.append(workers)
        for lo, hi in field._slices(total, workers):
            run(lo, hi)

    monkeypatch.setattr(field, "run_forked", in_process)
    monkeypatch.setattr(field, "run_chunks", in_process)
    return seen


@pytest.mark.parametrize("workers, usable", [("64", 2), ("2", 2), ("1", 2), ("3", 8)])
def test_workers_are_capped_at_the_usable_cpus(tmp_path, monkeypatch, workers, usable):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
    seen = _record_workers(monkeypatch)
    cfg = tiny_newton(tmp_path)
    sweep = tiny_sweep(tmp_path)
    assert main(["render", cfg, "--workers", workers, "--dump-field", str(tmp_path / "f.qjf")]) == 0
    assert main(["sweep", sweep, "--workers", workers]) == 0
    # render: march, refine, scan; sweep: scan, then the cell's march and refine
    assert seen == [min(int(workers), usable)] * 6


@pytest.mark.parametrize("cpu_count, cap", [(3, 3), (None, 1)])
def test_workers_cap_falls_back_to_the_cpu_count(tmp_path, monkeypatch, cpu_count, cap):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    seen = _record_workers(monkeypatch)
    assert main(["render", tiny_newton(tmp_path), "--workers", "64"]) == 0
    assert seen == [cap, cap]


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["render", "sweep"])
def test_workers_below_one_is_one_error_line(tmp_path, capsys, monkeypatch, command, workers):
    _refuse_work(monkeypatch)
    cfg = tiny_sweep(tmp_path) if command == "sweep" else tiny_newton(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, cfg, "--workers", workers]) == 1
    assert capsys.readouterr().err == "error: --workers: must be >= 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["render", "job.json", "--workers", "abc"],
    ["slice", "job.json", "--workers", "2"],
    ["render"],
    ["bogus", "job.json"],
    [],
], ids=["workers-not-int", "slice-takes-no-workers", "no-job", "unknown-command", "no-command"])
def test_usage_error_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    _refuse_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    tiny_newton(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


def test_workers_is_not_a_config_key(tmp_path, capsys):
    # the worker count changes no output byte, so only --workers sets it
    assert main(["render", tiny_newton(tmp_path, workers=2)]) == 1
    assert capsys.readouterr().err == "error: unknown key workers\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


@pytest.mark.parametrize("entries, key", MALFORMED_JOBS)
@pytest.mark.parametrize("command", ["render", "slice"])
def test_malformed_job_is_one_error_line_naming_its_key(tmp_path, capsys, command, entries, key):
    assert main([command, tiny_newton(tmp_path, **entries)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and key in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


@pytest.mark.parametrize("command", ["render", "slice", "sweep"])
def test_job_nested_too_deeply_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    _refuse_work(monkeypatch)
    job = tmp_path / "job.json"
    job.write_text("[" * 200_000)
    assert main([command, str(job)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: invalid JSON: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


@pytest.mark.parametrize("path", ["", ".", "..", "{tmp}/.", "{tmp}/sub/"])
@pytest.mark.parametrize("command, option", [
    ("render", "--out"), ("render", "--dump-field"), ("slice", "--out"), ("sweep", "--out"),
])
def test_output_option_that_names_no_file_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, option, path
):
    _refuse_work(monkeypatch)
    cfg = tiny_sweep(tmp_path) if command == "sweep" else tiny_newton(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, cfg, option, path.format(tmp=tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {option}: expected a path ending in a file name\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, argv, output_path, key, reason", [
    ("render", [], "outdir", "outputPath", "is a directory"),
    ("render", ["--out", "outdir"], "out.ppm", "--out", "is a directory"),
    ("render", ["--out", "nodir/x.ppm"], "out.ppm", "--out", "is not a directory"),
    ("render", [], "nodir/out.ppm", "outputPath", "is not a directory"),
    ("render", ["--out", "job.json/x.ppm"], "out.ppm", "--out", "is not a directory"),
    ("render", ["--dump-field", "outdir"], "out.ppm", "--dump-field", "is a directory"),
    ("render", ["--dump-field", "nodir/f.qjf"], "out.ppm", "--dump-field", "is not a directory"),
    ("render", ["--out", "same.out", "--dump-field", "same.out"], "out.ppm",
     "--dump-field", "names the same file as --out"),
    ("render", ["--dump-field", "outdir/../out.ppm"], "out.ppm",
     "--dump-field", "names the same file as outputPath"),
    ("slice", [], "outdir.ppm", "outputPath", "is a directory"),
    ("slice", ["--out", "nodir/x.pgm"], "out.ppm", "--out", "is not a directory"),
    ("slice", [], "nodir/out.ppm", "outputPath", "is not a directory"),
    ("sweep", ["--out", "outdir"], "out.ppm", "--out", "is a directory"),
    ("sweep", ["--out", "nodir/s.csv"], "out.ppm", "--out", "is not a directory"),
    ("sweep", [], "nodir/out.ppm", "outputPath", "is not a directory"),
    # the CSV can be written, but its one cell's image is a directory
    ("sweep", ["--out", "s.csv"], "out.ppm", "--out", "s_r2_it5.ppm is a directory"),
    ("sweep", [], "s.ppm", "outputPath", "s_r2_it5.ppm is a directory"),
    # a FIFO, also behind a link, would be replaced by the rename into place
    ("render", ["--out", "fifo.ppm"], "out.ppm", "--out", "fifo.ppm is not a regular file"),
    ("render", ["--out", "link.ppm"], "out.ppm", "--out", "link.ppm is not a regular file"),
    ("render", ["--dump-field", "fifo.ppm"], "out.ppm", "--dump-field", "is not a regular file"),
    ("render", [], "fifo.ppm", "outputPath", "is not a regular file"),
    ("slice", ["--out", "fifo.pgm"], "out.ppm", "--out", "is not a regular file"),
    ("slice", [], "fifo.ppm", "outputPath", "fifo.pgm is not a regular file"),
    ("sweep", ["--out", "f.csv"], "out.ppm", "--out", "f_r2_it5.ppm is not a regular file"),
    ("sweep", [], "f.ppm", "outputPath", "f_r2_it5.ppm is not a regular file"),
])
def test_output_that_cannot_be_written_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, argv, output_path, key, reason
):
    _refuse_work(monkeypatch)
    (tmp_path / "outdir").mkdir()
    (tmp_path / "outdir.pgm").mkdir()
    (tmp_path / "s_r2_it5.ppm").mkdir()
    fifos = [tmp_path / name for name in ("fifo.ppm", "fifo.pgm", "f_r2_it5.ppm")]
    for fifo in fifos:
        os.mkfifo(fifo)
    (tmp_path / "link.ppm").symlink_to(fifos[0])
    job = tiny_sweep if command == "sweep" else tiny_newton
    cfg = job(tmp_path, outputPath=str(tmp_path / output_path))
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    assert main([command, cfg, *argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {key}: ") and reason in err
    assert sorted(tmp_path.rglob("*")) == before
    assert all(stat.S_ISFIFO(os.stat(fifo).st_mode) for fifo in fifos)


def test_slice_refuses_non_real_map_naming_map(tmp_path, capsys):
    # a quaternion q has no complex cross-section, but render takes it
    cfg = write_cfg(tmp_path, "job.json", {
        "map": {"kind": "quadratic", "p": 1, "q": [0, 0.5, 0, 0]},
        "method": "escape",
        "region": {"min": [-2, -2, -2], "max": [2, 2, 2], "resolution": [9, 9, 9]},
        "camera": {"viewAxis": "+z", "imageSize": [8, 8]},
        "outputPath": str(tmp_path / "out.ppm"),
    })
    assert main(["slice", cfg]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: map: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]
    assert main(["render", cfg]) == 0
    assert (tmp_path / "out.ppm").exists()


def test_slice_unit_disc(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "disc.json",
        {
            "map": {"kind": "quadratic", "p": 1, "q": 0},
            "method": "escape",
            "radius": 2.0,
            "maxIter": 24,
            "region": {"min": [-2, -2, -2], "max": [2, 2, 2], "resolution": [33, 33, 33]},
            "outputPath": str(tmp_path / "disc.ppm"),
        },
    )
    assert main(["slice", cfg]) == 0
    data = (tmp_path / "disc.pgm").read_bytes()
    assert data.startswith(b"P5\n33 33\n255\n")
    pixels = data[len(b"P5\n33 33\n255\n"):]
    assert len(pixels) == 33 * 33
    # origin plotted, far corner escaped
    assert pixels[16 * 33 + 16] == 255
    assert pixels[0] == 0


def test_slice_window_override(tmp_path):
    cfg = tiny_newton(
        tmp_path,
        slice={"window": [-1, 1, -1, 1], "resolution": [17, 13]},
    )
    out = tmp_path / "sl.pgm"
    assert main(["slice", cfg, "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P5\n17 13\n255\n")


@pytest.mark.parametrize("name, digest", [
    ("newton_cubic_cutoff.json", "f1b6307507dfe3e5c8e5b604e52d85ed9ddbbf25b5667ff1c296bd67336a039a"),
    ("newton_cubic_escape.json", "4567b42df5a402776b6fa453e169a9112f060d4945cf60fa971222fcc9e0b3f3"),
    ("quadratic_basilica.json", "8ace9ef723b76260dca8391fdeae10f36f1d3d2e8f86d43d70cccbd504e21544"),
    ("interweaving_basins.json", "953542c2a791e9f5412e02dcf1195e80f3cc83156d1f39a278dbe1771e2cd81a"),
])
def test_slice_of_bundled_config_keeps_its_bytes(tmp_path, name, digest):
    cfg = Path(__file__).resolve().parent.parent / "configs" / name
    out = tmp_path / "slice.pgm"
    assert main(["slice", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# a 48x48 render on a 33^3 grid, and its QJF1 field dump
@pytest.mark.parametrize("name, ppm_digest, field_digest", [
    (
        "newton_cubic_cutoff.json",
        "f6f852829efb7712aeab67e1a728116ba86a5365fc1fd1b3ae2bdf8c47fd25e0",
        "eb8143b178271739f06b7e82f55eb64ddf044fd831970815c21c5d70627aed15",
    ),
    (
        "newton_cubic_escape.json",
        "cfb441779f02fc6f042d6a45e84cd94ea85c996271188c88b707543f3e3ae4c2",
        "8a2056afadd8c2be7d316a7c862f223b4589a593ad7eba7dcd00ab540efa4fee",
    ),
    (
        "quadratic_basilica.json",
        "e01807ff7e974eec55b7c14955e3f83e8e574850af08dc8ef8567aadc4272bf4",
        "d7764ffc0894dfce169455ba0db595b984f4f1186b294e05dcf83b148322d087",
    ),
    (
        "interweaving_basins.json",
        "cb1552e529c9d5585c92cbbb99bb063488c31ef4e7deb4a298a7f7137cc2e2f5",
        "8992cc82c9af73d0c3388054b8964a3439b52c596f0e44ec499eebc19a7ce127",
    ),
])
def test_render_of_bundled_config_keeps_its_bytes(tmp_path, name, ppm_digest, field_digest):
    data = json.loads((Path(__file__).resolve().parent.parent / "configs" / name).read_text())
    data["camera"]["imageSize"] = [48, 48]
    data["region"]["resolution"] = [33, 33, 33]
    cfg = write_cfg(tmp_path, "job.json", data)
    ppm, qjf = tmp_path / "render.ppm", tmp_path / "field.qjf"
    assert main(["render", cfg, "--out", str(ppm), "--dump-field", str(qjf)]) == 0
    assert hashlib.sha256(ppm.read_bytes()).hexdigest() == ppm_digest
    assert hashlib.sha256(qjf.read_bytes()).hexdigest() == field_digest


def test_slice_rejects_nonreal_map(tmp_path, capsys):
    cfg = tiny_newton(
        tmp_path, map={"kind": "quadratic", "p": 1, "q": [0, 1, 0, 0]}
    )
    assert main(["slice", cfg]) == 1
    assert "real" in capsys.readouterr().err


def test_sweep_csv_and_images(tmp_path):
    base = {
        "map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]},
        "method": "escape",
        "region": {"min": [-2, -2, -2], "max": [2, 2, 2], "resolution": [9, 9, 9]},
        "camera": {"viewAxis": "+z", "imageSize": [16, 16]},
        "outputPath": str(tmp_path / "sweep.csv"),
    }
    cfg = write_cfg(
        tmp_path,
        "sweep.json",
        {"radii": [2.0, 4.0], "iterationCounts": [5, 12], "base": base},
    )
    assert main(["sweep", cfg, "--workers", "1"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "radius,maxIter,fracPlotted,fracEscaped,fracConverged,meanSteps"
    assert len(lines) == 5
    starts = [",".join(l.split(",")[:2]) for l in lines[1:]]
    assert starts == ["2,5", "2,12", "4,5", "4,12"]
    for l in lines[1:]:
        parts = l.split(",")
        assert len(parts) == 6
        for frac in parts[2:5]:
            assert 0.0 <= float(frac) <= 1.0
    for name in ("sweep_r2_it5.ppm", "sweep_r2_it12.ppm", "sweep_r4_it5.ppm", "sweep_r4_it12.ppm"):
        assert (tmp_path / name).exists()


def test_sweep_renders_each_distinct_image_once(tmp_path, capsys, monkeypatch):
    # repeated radii and repeated counts name the same image: one render,
    # one file and one "wrote" line each, with the bytes of a plain sweep
    calls = []
    render_image = render.render_image

    def spy(*args, **kwargs):
        calls.append(args[3])
        return render_image(*args, **kwargs)

    base = json.loads(Path(tiny_newton(tmp_path)).read_text())
    plain, repeated = tmp_path / "plain", tmp_path / "repeated"
    for out, radii, counts in ((plain, [2.0], [5, 12]), (repeated, [2.0, 2.0], [5, 12, 5])):
        out.mkdir()
        spec = {"radii": radii, "iterationCounts": counts,
                "base": {**base, "outputPath": str(out / "s.csv")}}
        cfg = write_cfg(out, "sweep.json", spec)
        calls.clear()
        monkeypatch.setattr(render, "render_image", spy)
        assert main(["sweep", cfg, "--workers", "1"]) == 0
        assert [(p.radius, p.max_iter) for p in calls] == [(2.0, 5), (2.0, 12)]
    wrote = capsys.readouterr().out.splitlines()
    images = ["s_r2_it5.ppm", "s_r2_it12.ppm"]
    assert wrote[3:] == [f"wrote {repeated / name}" for name in [*images, "s.csv"]]
    for name in images:
        assert (repeated / name).read_bytes() == (plain / name).read_bytes()
    assert len((repeated / "s.csv").read_text().splitlines()) == 1 + 6


def test_sweep_refuses_radii_that_print_alike(tmp_path, capsys):
    # both print as 0.123457, so they would share a CSV label and an image
    base = json.loads(Path(tiny_newton(tmp_path)).read_text())
    base["outputPath"] = str(tmp_path / "t.csv")
    spec = {"radii": [0.1234567, 0.1234568], "iterationCounts": [5], "base": base}
    cfg = write_cfg(tmp_path, "sweep.json", spec)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["sweep", cfg]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: radii: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    # a repeated radius prints alike too, but its rows are the same cell's
    spec["radii"] = [0.1234567, 0.1234567]
    write_cfg(tmp_path, "sweep.json", spec)
    assert main(["sweep", cfg, "--no-images"]) == 0
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and rows[0] == rows[1] and rows[0].startswith("0.123457,5,")


def test_sweep_no_images(tmp_path):
    base = {
        "map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]},
        "method": "escape",
        "region": {"min": [-2, -2, -2], "max": [2, 2, 2], "resolution": [9, 9, 9]},
        "outputPath": str(tmp_path / "sweep.csv"),
    }
    cfg = write_cfg(
        tmp_path, "sweep.json", {"radii": [4.0], "iterationCounts": [5], "base": base}
    )
    assert main(["sweep", cfg, "--no-images"]) == 0
    assert (tmp_path / "sweep.csv").exists()
    assert not list(tmp_path.glob("*.ppm"))


def test_cutoff_sweep_rows_match_separate_scans(tmp_path):
    base = {
        "map": {"kind": "newton", "polynomial": [-1, 0, 0, 1]},
        "method": "cutoff",
        "cutoffCount": 6,
        "region": {"min": [-2, -2, -2], "max": [2, 2, 2], "resolution": [11, 11, 11]},
        "outputPath": str(tmp_path / "sweep.csv"),
    }
    spec = {"radii": [0.01, 1e-4, 0.01, 0.5], "iterationCounts": [30, 1, 8], "base": base}
    cfg = write_cfg(tmp_path, "sweep.json", spec)
    assert main(["sweep", cfg, "--no-images", "--workers", "2"]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]

    sweep = parse_sweep(json.dumps(spec))
    b = sweep.base
    F = b.map.build()
    want = []
    for radius, max_iter in sweep.cells():
        fld = field.scan(F, b.region, b.embedding, sweep.cell_params(radius, max_iter))
        want.append(
            f"{radius:g},{max_iter},{fld.fraction_plotted():.6f},"
            f"{fld.fraction(OutcomeKind.ESCAPED):.6f},"
            f"{fld.fraction(OutcomeKind.CONVERGED):.6f},{fld.mean_steps():.6f}"
        )
    assert rows == want


def _raises(exc):
    def layer(*args, **kwargs):
        raise exc

    return layer


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "error: out of memory"),
    (KeyboardInterrupt(), "error: interrupted"),
])
@pytest.mark.parametrize("command", ["render", "sweep"])
def test_memory_error_and_interrupt_end_in_one_error_line(
    tmp_path, capsys, monkeypatch, exc, message, command
):
    cfg = tiny_sweep(tmp_path) if command == "sweep" else tiny_newton(tmp_path)
    layer = (render, "render_image") if command == "render" else (field, "scan")
    monkeypatch.setattr(*layer, _raises(exc))
    assert main([command, cfg, "--workers", "1"]) == 1
    assert capsys.readouterr().err == message + "\n"


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("fail, message", [
    (_kill_self, "error: scan worker killed by SIGKILL"),
    (_interrupt, "error: interrupted"),
], ids=["sigkill", "interrupt"])
def test_failing_scan_worker_ends_in_one_error_line(
    tmp_path, capsys, monkeypatch, fail, message
):
    base = json.loads(Path(tiny_newton(tmp_path)).read_text())
    spec = {"radii": [2.0, 4.0], "iterationCounts": [5], "base": base}
    cfg = write_cfg(tmp_path, "sweep.json", spec)
    before = sorted(p.name for p in tmp_path.iterdir())
    # 729 voxels in 100-voxel slices, so two workers fork two children
    monkeypatch.setattr(field, "_CHUNK", 100)
    parent = os.getpid()
    classify_cells = dynamics.classify_cells

    def fail_in_child(*args):
        if os.getpid() != parent:
            fail()
        return classify_cells(*args)

    monkeypatch.setattr(dynamics, "classify_cells", fail_in_child)
    assert main(["sweep", cfg, "--workers", "2", "--no-images"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", message + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def _half_writer(exc):
    """A writer that puts some bytes into its file, then raises."""

    def write(path, *args):
        with open(path, "wb") as fh:
            fh.write(b"P6\n24 24\n255\n")
            raise exc

    return write


@pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()])
def test_failed_writer_leaves_no_output_and_no_temp_file(tmp_path, capsys, monkeypatch, exc):
    cfg = tiny_newton(tmp_path)
    monkeypatch.setattr(render, "write_ppm", _half_writer(exc))
    assert main(["render", cfg, "--workers", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


def test_failed_writer_keeps_previous_output(tmp_path, monkeypatch):
    cfg = tiny_newton(tmp_path)
    dump = tmp_path / "field.csv"
    assert main(["render", cfg, "--workers", "1", "--dump-field", str(dump)]) == 0
    before = dump.read_bytes()
    monkeypatch.setattr(field, "save_csv", lambda fld, path: _half_writer(OSError("full"))(path))
    assert main(["render", cfg, "--workers", "1", "--dump-field", str(dump)]) == 1
    assert dump.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field.csv", "job.json", "out.ppm"]


def test_path_handed_to_a_writer_names_the_output_afterwards(tmp_path, monkeypatch):
    # perfbench's tracer keeps save_csv's path argument and sizes that file later
    seen = []
    save_csv = field.save_csv

    def spy(fld, path):
        seen.append(path)
        save_csv(fld, path)

    monkeypatch.setattr(field, "save_csv", spy)
    dump = tmp_path / "field.csv"
    assert main(["render", tiny_newton(tmp_path), "--workers", "1", "--dump-field", str(dump)]) == 0
    assert os.fspath(seen[0]) == str(dump)
    assert os.path.getsize(seen[0]) == dump.stat().st_size > 0


def test_outputs_keep_the_file_mode_of_a_plain_open(tmp_path):
    cfg = tiny_newton(tmp_path)
    plain = tmp_path / "plain"
    open(plain, "wb").close()
    assert main(["render", cfg, "--workers", "1"]) == 0
    out = tmp_path / "out.ppm"
    assert os.stat(out).st_mode == os.stat(plain).st_mode
    # rewriting an existing output keeps its mode, as writing in place did
    os.chmod(out, 0o640)
    assert main(["render", cfg, "--workers", "1"]) == 0
    assert os.stat(out).st_mode & 0o777 == 0o640


def test_output_symlink_is_written_through(tmp_path, capsys):
    cfg = tiny_newton(tmp_path)
    assert main(["render", cfg, "--workers", "1", "--out", str(tmp_path / "want.ppm")]) == 0
    real, link = tmp_path / "real.ppm", tmp_path / "link.ppm"
    real.write_bytes(b"stale")
    os.chmod(real, 0o640)
    link.symlink_to(real)
    assert main(["render", cfg, "--workers", "1", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == (tmp_path / "want.ppm").read_bytes()
    assert os.stat(real).st_mode & 0o777 == 0o640
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {link}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "link.ppm", "real.ppm", "want.ppm"]


def test_dangling_output_symlink_creates_its_target(tmp_path):
    # as open(link, "wb") would
    cfg = tiny_newton(tmp_path)
    (tmp_path / "sub").mkdir()
    real, link = tmp_path / "sub" / "real.pgm", tmp_path / "link.pgm"
    link.symlink_to(real)
    assert main(["slice", cfg, "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_bytes().startswith(b"P5\n")


def test_output_symlink_and_its_target_are_one_file(tmp_path, capsys, monkeypatch):
    _refuse_work(monkeypatch)
    cfg = tiny_newton(tmp_path)
    real, link = tmp_path / "real.ppm", tmp_path / "link.ppm"
    link.symlink_to(real)
    assert main(["render", cfg, "--out", str(link), "--dump-field", str(real)]) == 1
    assert capsys.readouterr().err == "error: --dump-field: names the same file as --out\n"
    far = tmp_path / "far.ppm"
    far.symlink_to(tmp_path / "nodir" / "x.ppm")
    assert main(["render", cfg, "--out", str(far)]) == 1
    assert capsys.readouterr().err == (
        f"error: --out: {far} links into a path that is not a directory\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["far.ppm", "job.json", "link.ppm"]


def _snapshot(directory):
    """Each entry of directory with its bytes (a link's, read through it)."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("command, argv, output_path, key", [
    ("render", [], "job.json", "outputPath"),
    ("render", ["--out", "job.json"], "out.ppm", "--out"),
    ("render", ["--dump-field", "job.json"], "out.ppm", "--dump-field"),
    ("render", ["--dump-field", "link.json"], "out.ppm", "--dump-field"),
    ("slice", ["--out", "link.json"], "out.ppm", "--out"),
    ("sweep", ["--out", "sweep.json"], "out.ppm", "--out"),
])
def test_output_that_names_the_job_file_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, argv, output_path, key
):
    _refuse_work(monkeypatch)
    job = tiny_sweep if command == "sweep" else tiny_newton
    cfg = job(tmp_path, outputPath=str(tmp_path / output_path))
    (tmp_path / "link.json").symlink_to(cfg)
    before = _snapshot(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([command, cfg, *argv]) == 1
    assert capsys.readouterr().err == f"error: {key}: names the same file as the job file\n"
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("argv, key", [([], "outputPath"), (["--out", "{tmp}/s.csv"], "--out")])
@pytest.mark.parametrize("target", ["s.csv", "s_r2_it5.ppm"])
def test_sweep_output_that_links_to_another_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv, key, target
):
    # one key names both files, so the line names the second path
    _refuse_work(monkeypatch)
    base = json.loads(Path(tiny_newton(tmp_path, outputPath=str(tmp_path / "s.csv"))).read_text())
    spec = {"radii": [2.0], "iterationCounts": [5, 12], "base": base}
    cfg = write_cfg(tmp_path, "sweep.json", spec)
    (tmp_path / target).write_bytes(b"old")
    link = tmp_path / "s_r2_it12.ppm"
    link.symlink_to(tmp_path / target)
    before = _snapshot(tmp_path)
    assert main(["sweep", cfg, *(a.format(tmp=tmp_path) for a in argv)]) == 1
    assert capsys.readouterr().err == (
        f"error: {key}: {link} names the same file as {tmp_path / target}\n"
    )
    assert _snapshot(tmp_path) == before


def test_missing_config_file_fails(tmp_path, capsys):
    assert main(["render", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_json_fails_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["render", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "JSON" in err


def test_bad_key_names_key(tmp_path, capsys):
    cfg = tiny_newton(tmp_path, radius=-2.0)
    assert main(["render", cfg]) == 1
    assert "radius" in capsys.readouterr().err


def _src_env() -> dict[str, str]:
    """The caller's environment with the repo's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def test_module_entry_point(tmp_path):
    cfg = tiny_newton(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "qjulia", "render", cfg, "--workers", "1"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "out.ppm").exists()


def test_process_entry_freezes_the_import_time_heap():
    probe = "import gc, qjulia.__main__; print(gc.isenabled(), gc.get_freeze_count() > 0)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\n"


def test_cli_main_leaves_the_collector_alone(tmp_path):
    # library callers and tests run main in their own process
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["render", tiny_newton(tmp_path), "--workers", "1"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_cli_import_leaves_the_thread_pool_out():
    # only the ray march uses concurrent.futures; every other command
    # skips its import (and the logging it pulls in)
    probe = "import sys, qjulia.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name", [
    "quadratic_basilica.json",
    "newton_cubic_escape.json",
    "newton_cubic_cutoff.json",
    "interweaving_basins.json",
])
def test_bundled_configs_parse(name):
    from pathlib import Path

    from qjulia.config import parse_config

    root = Path(__file__).resolve().parent.parent / "configs"
    parse_config((root / name).read_text())


def test_bundled_sweep_parses():
    from pathlib import Path

    from qjulia.config import parse_sweep

    root = Path(__file__).resolve().parent.parent / "configs"
    spec = parse_sweep((root / "sweep_newton.json").read_text())
    assert len(spec.cells()) == 12
