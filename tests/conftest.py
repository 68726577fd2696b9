"""Shared test helpers."""

import math
import os
import sys

import pytest
from hypothesis import strategies as st

from qjulia.dynamics import (
    ClassifierMethod,
    ClassifierParams,
    PoleError,
    QRationalMap,
    _eval_map,
)
from qjulia.quat import Quaternion


# Generated inputs for the twin-pair gates of test_dynamics and
# test_oracle2d.  Coefficient parts are often zeros of either sign, which
# the quaternion Horner skips; seed parts mix uniform values with ones
# whose products underflow or overflow, whose norm is NaN (1e200) or that
# sit on small integer fixed points.
coeff_parts = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 3.0))
nonzero_parts = st.floats(-3.0, 3.0).map(lambda c: c or 1.0)
seed_parts = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from((0.0, -0.0, 1e-200, -1e-200, 1e150, -1e150, 1e200, 0.75, 2.0, -1.0)),
)
radii_1e6_to_1e3 = st.floats(-6.0, 3.0).map(lambda e: 10.0**e)


def partitions(count):
    """Cut points splitting range(count) into one to four consecutive parts."""
    return st.sets(st.integers(1, count), max_size=3).map(lambda cuts: sorted({0, count, *cuts}))


# (job entries over a valid Newton job, the key its one error line names):
# values of a type no reader expects, some unhashable, a maxIter beyond
# the uint32 step counts, slice blocks outside the slice's bounds, nulls,
# which no key takes, grids whose extent overflows or whose resolution
# no float holds, and output paths that name no file
MALFORMED_JOBS = [
    ({"camera": {"viewAxis": ["+z"]}}, "camera"),
    ({"camera": {"viewAxis": {"a": 1}}}, "camera"),
    ({"embedding": {"axes": [["r"], "m", "n"]}}, "embedding.axes"),
    ({"method": ["escape"]}, "method"),
    ({"palette": ["gray"]}, "palette"),
    ({"map": {"kind": ["newton"], "polynomial": [-1, 0, 0, 1]}}, "map.kind"),
    ({"maxIter": 5000000000}, "maxIter"),
    ({"slice": {"resolution": [1, 5]}}, "slice.resolution"),
    ({"slice": {"window": [1, -1, 0, 1]}}, "slice.window"),
    ({"lighting": {"lightDir": None}}, "lighting.lightDir"),
    ({"cutoffCount": None}, "cutoffCount"),
    ({"region": {"min": [-1e308] * 3, "max": [1e308] * 3}}, "region"),
    ({"region": {"resolution": [10**400, 3, 3]}}, "region"),
    ({"slice": {"window": [-1e308, 1e308, -1, 1]}}, "slice.window"),
    ({"slice": {"resolution": [10**400, 5]}}, "slice.resolution"),
    # finite steps whose far corner rounds beyond the float range
    ({"region": {"min": [0, 0, 0], "max": [sys.float_info.max] * 3, "resolution": [4] * 3}}, "region"),
    ({"slice": {"window": [0, sys.float_info.max, -1, 1], "resolution": [4, 5]}}, "slice"),
    ({"outputPath": ""}, "outputPath"),
    ({"outputPath": "."}, "outputPath"),
    ({"outputPath": "sub/"}, "outputPath"),
]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "running" if pid == 0 else f"unreaped (pid {pid})"
    pytest.fail(f"the test left a child process {state}")


def threshold_margin(
    F: QRationalMap, seed: Quaternion, params: ClassifierParams
) -> float:
    """Smallest |decision statistic - radius| the classifier examines.

    Replays the orbit of seed under F and tracks how close the decision
    statistic (iterate norm for escape time, successive-iterate distance
    for cut-off rate) comes to the threshold over every step the
    classifier actually looks at.  Seeds with a tiny margin sit
    numerically on the plotted/unplotted fence, so equivalence and
    symmetry tests exclude them instead of demanding a particular side.
    The orbit runs on bare floats through dynamics._eval_map, and the
    norm and distance sum and subtract in quat.norm's and quat.distance's
    order, so the margins are those of the Quaternion arithmetic.
    """
    escape = params.method is ClassifierMethod.ESCAPE_TIME
    margin = math.inf
    pr, pm, pn, pp = seed
    for _ in range(params.max_iter):
        try:
            br, bm, bn, bp = _eval_map(F, pr, pm, pn, pp)
        except PoleError:
            return margin
        if not (
            math.isfinite(br)
            and math.isfinite(bm)
            and math.isfinite(bn)
            and math.isfinite(bp)
        ):
            return margin
        if escape:
            norm = math.sqrt(br * br + bm * bm + bn * bn + bp * bp)
            margin = min(margin, abs(norm - params.radius))
        else:
            dr = br - pr
            dm = bm - pm
            dn = bn - pn
            dp = bp - pp
            d = math.sqrt(dr * dr + dm * dm + dn * dn + dp * dp)
            margin = min(margin, abs(d - params.radius))
            if d < params.radius:
                return margin
        pr, pm, pn, pp = br, bm, bn, bp
    return margin
