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
import os
import sys
from pathlib import Path

from qjulia import field, oracle2d, render
from qjulia.config import ConfigError, RenderConfig, parse_config, parse_sweep
from qjulia.dynamics import ClassifierParams, OutcomeKind, QRationalMap


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _effective_workers(cfg: RenderConfig, override) -> int:
    if override is not None:
        return override
    if cfg.workers is not None:
        return cfg.workers
    return os.cpu_count() or 1


def _dump_field(fld: field.ClassificationField, path: str) -> None:
    if path.endswith(".csv"):
        field.save_csv(fld, path)
    else:
        field.save_raw(fld, path)
    print(f"wrote {path}")


def _render_to(
    path, F: QRationalMap, cfg: RenderConfig, params: ClassifierParams, workers: int
) -> None:
    image = render.render_image(
        F,
        cfg.region,
        cfg.embedding,
        params,
        cfg.camera,
        cfg.lighting,
        k_refine=cfg.k_refine,
        workers=workers,
        palette=cfg.palette,
    )
    render.write_ppm(path, image)
    print(f"wrote {path}")


def run_render(args) -> int:
    cfg = parse_config(_read_text(args.config))
    workers = _effective_workers(cfg, args.workers)
    out = args.out or cfg.output_path
    F = cfg.map.build()
    _render_to(out, F, cfg, cfg.params, workers)
    if args.dump_field:
        fld = field.scan(F, cfg.region, cfg.embedding, cfg.params, workers=workers)
        _dump_field(fld, args.dump_field)
    return 0


def _complex_section(F: QRationalMap) -> oracle2d.CMap:
    if not F.is_real:
        raise ConfigError("slice requires a map with real coefficients")
    return oracle2d.cmap(
        tuple(c.r for c in F.numerator.coeffs),
        tuple(c.r for c in F.denominator.coeffs),
    )


def run_slice(args) -> int:
    cfg = parse_config(_read_text(args.config))
    window = cfg.slice_window or (
        cfg.region.min[0],
        cfg.region.max[0],
        cfg.region.min[1],
        cfg.region.max[1],
    )
    resolution = cfg.slice_resolution or (
        cfg.region.resolution[0],
        cfg.region.resolution[1],
    )
    out = args.out or str(Path(cfg.output_path).with_suffix(".pgm"))
    bits = oracle2d.render_slice2d(
        _complex_section(cfg.map.build()), window, resolution, cfg.params
    )
    oracle2d.write_pgm(out, bits)
    print(f"wrote {out}")
    return 0


def _sweep_row(fld: field.ClassificationField) -> tuple[float, float, float, float]:
    return (
        fld.fraction_plotted(),
        fld.fraction(OutcomeKind.ESCAPED),
        fld.fraction(OutcomeKind.CONVERGED),
        fld.mean_steps(),
    )


def run_sweep(args) -> int:
    spec = parse_sweep(_read_text(args.config))
    base = spec.base
    workers = _effective_workers(base, args.workers)
    out = args.out or str(Path(base.output_path).with_suffix(".csv"))
    out_path = Path(out)
    F = base.map.build()
    lines = ["radius,maxIter,fracPlotted,fracEscaped,fracConverged,meanSteps"]
    for radius, max_iter in spec.cells():
        params = spec.cell_params(radius, max_iter)
        fld = field.scan(F, base.region, base.embedding, params, workers=workers)
        plotted, escaped, converged, mean_steps = _sweep_row(fld)
        lines.append(
            f"{radius:g},{max_iter},{plotted:.6f},{escaped:.6f},"
            f"{converged:.6f},{mean_steps:.6f}"
        )
        if not args.no_images:
            cell = out_path.with_name(
                f"{out_path.stem}_r{radius:g}_it{max_iter}.ppm"
            )
            _render_to(cell, F, base, params, workers)
    with open(out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qjulia",
        description="Render 3-D slices of quaternionic Julia sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_render = sub.add_parser("render", help="ray-march a job to a PPM image")
    p_render.add_argument("config", help="JSON job description")
    p_render.add_argument("--workers", type=int, help="parallel worker count")
    p_render.add_argument("--out", help="output image path (overrides outputPath)")
    p_render.add_argument(
        "--dump-field",
        metavar="PATH",
        help="also scan the voxel field; .csv writes text, anything else QJF1",
    )
    p_render.set_defaults(func=run_render)

    p_slice = sub.add_parser("slice", help="write the complex cross-section as PGM")
    p_slice.add_argument("config", help="JSON job description")
    p_slice.add_argument("--out", help="output image path (overrides outputPath)")
    p_slice.set_defaults(func=run_slice)

    p_sweep = sub.add_parser("sweep", help="tabulate a radius/iteration grid")
    p_sweep.add_argument("config", help="JSON sweep description")
    p_sweep.add_argument("--workers", type=int, help="parallel worker count")
    p_sweep.add_argument("--out", help="output CSV path (overrides outputPath)")
    p_sweep.add_argument(
        "--no-images", action="store_true", help="skip the per-cell renders"
    )
    p_sweep.set_defaults(func=run_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
