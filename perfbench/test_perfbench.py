"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

GOOD = b"P5\n2 2\n255\n\x00\xff\xff\x00"


def _writer(path: Path, data: bytes, exit_code: int = 0) -> list[str]:
    code = f"open({str(path)!r}, 'wb').write({data!r}); raise SystemExit({exit_code})"
    return [sys.executable, "-c", code]


def _measure_once(tmp_path: Path, data: bytes, exit_code: int = 0) -> run.Tally:
    out = tmp_path / "out.pgm"
    gate = checks.Gate(lambda outputs: [], {"pgm": hashlib.sha256(GOOD).hexdigest()})
    tally = run.Tally()
    run.measure(
        _writer(out, data, exit_code), {"pgm": out}, gate, 0, tmp_path / "log", dict(os.environ), tally
    )
    return tally


def test_matching_output_counts_as_passed(tmp_path):
    tally = _measure_once(tmp_path, GOOD)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_one_corrupted_byte_counts_as_failed(tmp_path):
    corrupt = bytearray(GOOD)
    corrupt[-1] ^= 0x01
    tally = _measure_once(tmp_path, bytes(corrupt))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "sha256" in tally.problems[0]
    assert tally.calls[0].wall_s > 0  # the failed run keeps its timing


def test_nonzero_exit_counts_as_failed(tmp_path):
    tally = _measure_once(tmp_path, GOOD, exit_code=3)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.problems == ["exit code 3"]
    assert tally.calls[0].exit_code == 3


def test_unpinned_gate_checks_first_output_then_requires_same_digest(tmp_path):
    out = tmp_path / "out.pgm"
    gate = checks.Gate(lambda outputs: [], None)
    out.write_bytes(GOOD)
    assert gate(0, {"pgm": out}) == []
    out.write_bytes(GOOD[:-1] + b"\x01")
    assert gate(0, {"pgm": out})


def test_metric_names_and_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert {"wall_s", "setup_s", "peak_rss_mb"} == {m["name"] for m in spec["end_to_end"]}
    reported = tracing.layer_metrics(tracing.Tracer(), 1.0, 0.0)
    assert set(reported) == {m["name"] for m in spec["per_layer"]}


def test_tracer_restores_the_wrapped_functions():
    from qjulia import cli, config, render

    before = (cli.parse_config, render.cast_rays, config.parse_config_data)
    with tracing.Tracer() as tracer:
        assert cli.parse_config is not before[0]
        cli.parse_config((HERE.parent / "configs" / "newton_cubic_cutoff.json").read_text())
    assert (cli.parse_config, render.cast_rays, config.parse_config_data) == before
    assert [s.name for s in tracer.spans] == ["config.parse_config", "config.parse_config_data"]
    assert tracer.spans[1].parent == 0


def test_nonzero_seed_shifts_region_by_less_than_half_a_voxel(tmp_path):
    workload = run.WORKLOADS["render-newton-cutoff"]
    assert run.make_config(workload, 0, tmp_path) == run.ROOT / workload.config
    bundled = json.loads((run.ROOT / workload.config).read_text())
    shifted = json.loads(run.make_config(workload, 5, tmp_path).read_text())
    assert shifted["region"]["resolution"] == bundled["region"]["resolution"]
    assert shifted["camera"] == bundled["camera"]
    for axis in range(3):
        lo, hi, n = (bundled["region"][k][axis] for k in ("min", "max", "resolution"))
        offset = shifted["region"]["min"][axis] - lo
        assert 0 < abs(offset) <= 0.5 * (hi - lo) / (n - 1)
        assert abs(shifted["region"]["max"][axis] - hi - offset) < 1e-12
