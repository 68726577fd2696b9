"""Command line front end.

Subcommands:
  render  ray-march a 3-D job to a PPM image, optionally dumping the
          voxel classification field
  slice   classify the complex plane cross-section and write a PGM mask
  sweep   tabulate classification statistics over a radius/iteration
          grid, writing a CSV plus one small render per cell
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
from pathlib import Path
from typing import Callable

from qjulia import field, oracle2d, render
from qjulia.config import ConfigError, RenderConfig, output_path, parse_config, parse_sweep
from qjulia.dynamics import ClassifierParams, OutcomeKind, QRationalMap


class _Staged(os.PathLike):
    """Path of an output under construction: a sibling temp file until the
    rename, the target itself afterwards, so a caller that kept the path
    handed to a writer (a tracer sizing its output) finds the written file."""

    def __init__(self, target: str) -> None:
        self.target = target
        head, tail = os.path.split(target)
        self.current = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")

    def __fspath__(self) -> str:
        return self.current


def _write_output(path, write: Callable[[os.PathLike], None]) -> None:
    """Run write(tmp) on a temp file, then os.replace it onto path.

    A symlinked path is written through, as open() would: the temp file
    sits next to the file the link resolves to and replaces that file,
    so the link survives (a dangling link gets its target created).  The
    temp file is created with open()'s default 0o666-minus-umask mode,
    or the mode of the file it replaces, as writing in place would leave
    it.  If write fails, the temp file is removed and path is untouched.
    """
    staged = _Staged(os.path.realpath(path))
    os.close(os.open(staged.current, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(staged.target, staged.current)
        write(staged)
        os.replace(staged.current, staged.target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(staged.current)
        raise
    staged.current = staged.target
    print(f"wrote {path}")


def _render_to(
    path, F: QRationalMap, cfg: RenderConfig, params: ClassifierParams, workers: int
) -> None:
    image = render.render_image(
        F, cfg.region, cfg.embedding, params, cfg.camera, cfg.lighting,
        k_refine=cfg.k_refine, workers=workers, palette=cfg.palette,
    )
    _write_output(path, lambda tmp: render.write_ppm(tmp, image))


def _out(args, default) -> tuple[str, str]:
    """(key, path) of the command's main output: --out where given, else
    default, the path that outputPath gives."""
    return ("--out", args.out) if args.out is not None else ("outputPath", str(default))


def _check_outputs(job: str, outputs: list[tuple[str, str]]) -> None:
    """Refuse, before any work, an output (key, path) that cannot be
    written: a path that names no file (outputPath's rule), an existing
    directory or other file that is not a regular one (a FIFO, a device),
    a path in no directory, or a file that the job file or another output
    is too, compared through links."""
    seen = {os.path.realpath(job): ("the job file", job)}
    for key, path in outputs:
        head = os.path.dirname(output_path(path, key)) or "."
        if os.path.isdir(path):
            raise ConfigError(f"{key}: {path} is a directory")
        if os.path.exists(path) and not os.path.isfile(path):
            raise ConfigError(f"{key}: {path} is not a regular file")
        if not os.path.isdir(head):
            raise ConfigError(f"{key}: {head} is not a directory")
        # the file that _write_output's rename replaces, through any link
        entry = os.path.realpath(path)
        if not os.path.isdir(os.path.dirname(entry)):
            raise ConfigError(f"{key}: {path} links into a path that is not a directory")
        if entry in seen:
            other, first = seen[entry]
            if other == key:  # one key, two names: say which
                raise ConfigError(f"{key}: {path} names the same file as {first}")
            raise ConfigError(f"{key}: names the same file as {other}")
        seen[entry] = key, path


def run_render(args) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    key, out = _out(args, cfg.output_path)
    dump = [] if args.dump_field is None else [("--dump-field", args.dump_field)]
    _check_outputs(args.config, [(key, out), *dump])
    F = cfg.map.build()
    _render_to(out, F, cfg, cfg.params, args.workers)
    if args.dump_field:
        fld = field.scan(F, cfg.region, cfg.embedding, cfg.params, workers=args.workers)
        save = field.save_csv if args.dump_field.endswith(".csv") else field.save_raw
        _write_output(args.dump_field, lambda tmp: save(fld, tmp))
    return 0


def _complex_section(F: QRationalMap) -> oracle2d.CMap:
    if not F.is_real:
        raise ConfigError("map: slice requires real coefficients")
    return oracle2d.cmap(*([c.r for c in p.coeffs] for p in (F.numerator, F.denominator)))


def run_slice(args) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    key, out = _out(args, Path(cfg.output_path).with_suffix(".pgm"))
    _check_outputs(args.config, [(key, out)])
    F = _complex_section(cfg.map.build())
    bits = oracle2d.render_slice2d(F, cfg.slice_window, cfg.slice_resolution, cfg.params)
    _write_output(out, lambda tmp: oracle2d.write_pgm(tmp, bits))
    return 0


def run_sweep(args) -> int:
    spec = parse_sweep(Path(args.config).read_text(encoding="utf-8"))
    label = {radius: f"{radius:g}" for radius in spec.radii}
    if len(set(label.values())) < len(label):
        raise ConfigError("radii: distinct radii print alike at 6 significant digits")
    base = spec.base
    key, out = _out(args, Path(base.output_path).with_suffix(".csv"))
    out_path = Path(output_path(out, key))
    cells = [spec.cell_params(radius, max_iter) for radius, max_iter in spec.cells()]
    # a repeated cell names the same image: render and write it once
    images = {} if args.no_images else {
        str(out_path.with_name(f"{out_path.stem}_r{label[p.radius]}_it{p.max_iter}.ppm")): p
        for p in cells
    }
    _check_outputs(args.config, [(key, out), *((key, image) for image in images)])
    F = base.map.build()
    # one orbit pass per voxel answers every cell
    stack = field.scan(F, base.region, base.embedding, cells, workers=args.workers)
    lines = ["radius,maxIter,fracPlotted,fracEscaped,fracConverged,meanSteps"]
    for (radius, max_iter), fld in zip(spec.cells(), stack.fields):
        lines.append(
            f"{label[radius]},{max_iter},{fld.fraction_plotted():.6f},"
            f"{fld.fraction(OutcomeKind.ESCAPED):.6f},"
            f"{fld.fraction(OutcomeKind.CONVERGED):.6f},{fld.mean_steps():.6f}"
        )
    for image, params in images.items():
        _render_to(image, F, base, params, args.workers)
    text = "\n".join(lines) + "\n"

    def write_csv(tmp) -> None:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)

    _write_output(out, write_csv)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so main reports them as one
    error line with exit status 1, as any other failure."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qjulia",
        description="Render 3-D slices of quaternionic Julia sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options more than one subcommand takes, each declared once
    job = argparse.ArgumentParser(add_help=False)
    job.add_argument("config", help="JSON job description (sweep: a sweep description)")
    job.add_argument("--out", help="output path (overrides outputPath)")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers", type=int, default=1, help="parallel worker count (default 1)"
    )

    p_render = sub.add_parser(
        "render", parents=[job, workers], help="ray-march a job to a PPM image"
    )
    p_render.add_argument(
        "--dump-field",
        metavar="PATH",
        help="also scan the voxel field; .csv writes text, anything else QJF1",
    )
    p_render.set_defaults(func=run_render)

    p_slice = sub.add_parser(
        "slice", parents=[job], help="write the complex cross-section as PGM"
    )
    p_slice.set_defaults(func=run_slice)

    p_sweep = sub.add_parser(
        "sweep", parents=[job, workers], help="tabulate a radius/iteration grid"
    )
    p_sweep.add_argument(
        "--no-images", action="store_true", help="skip the per-cell renders"
    )
    p_sweep.set_defaults(func=run_sweep)
    return parser


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "workers"):
            if args.workers < 1:
                raise ValueError("--workers: must be >= 1")
            # a worker beyond the usable CPUs only adds a process or a thread
            args.workers = min(args.workers, _usable_cpus())
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory"
    except KeyboardInterrupt:
        message = "interrupted"
    print(f"error: {message}", file=sys.stderr)
    return 1

