"""Per-layer timing of the qjulia CLI from outside the program.

A Tracer replaces the public layer functions listed in LAYERS by timing
wrappers, in every loaded qjulia module that holds a reference to them
(``cli`` imports ``parse_config`` by name, ``render_image`` looks up
``cast_rays`` in its own module).  Each call becomes a Span that keeps
its bound arguments and its return value; layer_metrics turns the spans
into times and into work counts read from those return values only.

The wrapped functions are called from the CLI's main thread, so spans
nest on one stack.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from qjulia import cli, config  # noqa: F401  (cli loads every layer module)
from qjulia.dynamics import OUTCOME_LABELS, OutcomeKind

LAYERS = {
    "qjulia.config": tuple(
        name
        for name, value in vars(config).items()
        if name.startswith("parse_") and inspect.isfunction(value)
    ),
    "qjulia.field": ("scan", "save_csv"),
    "qjulia.render": ("cast_rays", "render_image", "write_ppm"),
    "qjulia.oracle2d": ("render_slice2d", "write_pgm"),
}


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    args: inspect.BoundArguments
    end: float = 0.0
    result: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps the LAYERS functions while it is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.originals: dict[str, Any] = {}
        self._open: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            parent = self._open[-1] if self._open else None
            self._open.append(len(self.spans))
            span = Span(name, time.perf_counter(), parent, bound)
            self.spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            return span.result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qjulia"]
        for module_name, names in LAYERS.items():
            module = sys.modules[module_name]
            for fn_name in names:
                name = f"{module_name.split('.')[-1]}.{fn_name}"
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original)
                self.originals[name] = original
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def returned(self, name: str) -> list[Span]:
        """Spans of name whose call returned a value rather than raising."""
        return [s for s in self.named(name) if s.result is not None]

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))


def march_counts(span: Span) -> tuple[int, int]:
    """(march lanes, bisect lanes) implied by one cast_rays DepthMap.

    A ray that hits on layer j sampled layers 0..j; a miss sampled every
    layer.  A hit at depth 0 is on layer 0 and is not refined; any other
    hit lies strictly inside (j-1, j) grid steps and took k_refine + 1
    bisection lanes.
    """
    dm, args = span.result, span.args.arguments
    region, camera = args["region"], args["camera"]
    axis = "xyz".index(camera.view_axis[1])
    depth = dm.depth[dm.hit]
    layer = np.where(depth == 0.0, 0, np.floor(depth / region.step(axis)) + 1)
    misses = dm.hit.size - depth.size
    march = misses * region.resolution[axis] + int((layer + 1).sum())
    bisect = int((layer > 0).sum()) * (args["k_refine"] + 1)
    return march, bisect


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def wrapper_overhead_s(repeats: int = 20000) -> float:
    """Measured cost of the timing wrapper per traced call: a wrapped no-op
    against the bare one."""

    def noop(a, b=None):
        return a

    wrapped = Tracer()._wrap("noop", noop)
    cost = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for i in range(repeats):
            fn(i)
        cost.append(time.perf_counter() - start)
    return (cost[1] - cost[0]) / repeats


def layer_metrics(tracer: Tracer, traced_s: float, cast_rays_1w_s: float) -> dict[str, float]:
    """Per-layer times and exact counts; layers a workload never calls read 0."""
    spans = tracer.spans
    config_s = sum(
        s.seconds
        for s in spans
        if s.name.startswith("config.")
        and (s.parent is None or not spans[s.parent].name.startswith("config."))
    )
    m: dict[str, float] = {"config.parse_s": config_s}

    scans = [s.result for s in tracer.returned("field.scan")]
    scan_s = tracer.seconds("field.scan")
    voxels = sum(int(f.tags.size) for f in scans)
    m["field.scan_s"] = scan_s
    m["field.scan.voxels"] = voxels
    m["field.scan.voxels_per_s"] = _rate(voxels, scan_s)
    for kind in OutcomeKind:
        m[f"field.outcome.{OUTCOME_LABELS[kind]}"] = sum(
            int(np.count_nonzero(f.tags == kind)) for f in scans
        )
    m["field.save_csv_s"] = tracer.seconds("field.save_csv")
    written = [s.args.arguments["path"] for s in tracer.named("field.save_csv")]
    m["field.save_csv.bytes"] = sum(os.path.getsize(p) for p in written if os.path.isfile(p))

    rays = tracer.returned("render.cast_rays")
    cast_s = tracer.seconds("render.cast_rays")
    lanes = [march_counts(s) for s in rays]
    march = sum(a for a, _ in lanes)
    bisect = sum(b for _, b in lanes)
    nested_cast_s = sum(
        s.seconds
        for s in rays
        if s.parent is not None and spans[s.parent].name == "render.render_image"
    )
    m["render.cast_rays_s"] = cast_s
    m["render.cast_rays_1w_s"] = cast_rays_1w_s
    m["render.speedup_2w"] = _rate(cast_rays_1w_s, cast_s)
    m["render.lanes_per_s"] = _rate(march + bisect, cast_s)
    m["render.rays"] = sum(int(s.result.hit.size) for s in rays)
    m["render.hits"] = sum(int(np.count_nonzero(s.result.hit)) for s in rays)
    m["render.march_lanes"] = march
    m["render.bisect_lanes"] = bisect
    m["render.shade_s"] = tracer.seconds("render.render_image") - nested_cast_s
    m["render.write_ppm_s"] = tracer.seconds("render.write_ppm")

    slice_s = tracer.seconds("oracle2d.render_slice2d")
    seeds = sum(int(s.result.size) for s in tracer.returned("oracle2d.render_slice2d"))
    m["oracle2d.render_slice2d_s"] = slice_s
    m["oracle2d.seeds_per_s"] = _rate(seeds, slice_s)
    m["oracle2d.write_pgm_s"] = tracer.seconds("oracle2d.write_pgm")

    top_s = sum(s.seconds for s in spans if s.parent is None)
    m["trace.wall_s"] = traced_s
    m["trace.unattributed_s"] = traced_s - top_s
    m["trace.overhead_s"] = len(spans) * wrapper_overhead_s()
    return m
