"""Spans around the package's public entry points, for the traced run only.

``Tracer.patched()`` replaces each wrapped function in every ``specklenav``
module that binds it (``harness`` imports them by name, ``detect.track``
calls ``detect_ring`` through its own module), records one span per call
and puts the originals back on exit.  Nothing is patched in an untraced
run, so the end-to-end figures never pay for tracing.

``geometry`` and ``fov`` get no spans: their functions are small helpers
called thousands of times from inside the other layers, so a span per call
would cost more than the work it measures.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import warnings
from pathlib import Path


def _render_counts(args, kwargs, result):
    camera = kwargs["camera"] if "camera" in kwargs else args[2]
    nx, ny = camera.resolution
    return {"rays": nx * ny, "points": 0 if result is None else len(result)}


def _points_in(position: int):
    """Counter of the size of the cloud passed at ``position``."""
    def count(args, kwargs, result):
        cloud = kwargs["cloud"] if "cloud" in kwargs else args[position]
        return {"points_in": len(cloud)}
    return count


def _ply_counts(args, kwargs, result):
    return {"bytes": 0 if result is None else Path(result).stat().st_size}


def _signal_counts(args, kwargs, result):
    return {"samples": 0 if result is None else len(result)}


# (module, function, counters) for every public entry point that gets a span.
# Counters run after the call, with ``result`` None when it raised.
TRACED = (
    ("scene", "render_cloud", _render_counts),
    ("detect", "detect_ring", _points_in(0)),
    ("detect", "track", _points_in(1)),
    ("fusion", "marker_in_base", None),
    ("fusion", "fit_tcp_correction", None),
    ("handeye", "plan_poses", None),
    ("handeye", "solve_ax_xb", None),
    ("handeye", "reprojection_error", None),
    ("respiration", "extract_signal", _signal_counts),
    ("respiration", "estimate_period", None),
    ("respiration", "detect_breath_hold", None),
    ("respiration", "motion_alarm", None),
    ("ply", "write_cloud", _ply_counts),
    ("harness", "run_scenario", None),
)


class Tracer:
    """In-memory span recorder: name, start, end, parent index and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.range_clamp_warnings = 0
        self._base = ([], 0)

    def keep_as_base(self) -> None:
        """Keep what is recorded so far (the set-up) in every later round."""
        self._base = (list(self.spans), self.range_clamp_warnings)

    def reset(self) -> None:
        """Drop everything recorded since ``keep_as_base``."""
        self.spans = list(self._base[0])
        self.range_clamp_warnings = self._base[1]

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "counts": {}}
            self.spans.append(span)
            self._stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    span["counts"] = counter(args, kwargs, result)
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced function and count RangeClampWarning records."""
        from specklenav.camera import RangeClampWarning

        modules = [m for n, m in list(sys.modules.items())
                   if n == "specklenav" or n.startswith("specklenav.")]
        undo = []
        for mod_name, fn_name, counter in TRACED:
            original = getattr(sys.modules[f"specklenav.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    undo.append((mod, fn_name, original))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RangeClampWarning)
                yield self
        finally:
            for mod, fn_name, original in undo:
                setattr(mod, fn_name, original)
        self.range_clamp_warnings += sum(
            1 for w in caught if issubclass(w.category, RangeClampWarning))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")


def layer_metrics(spans: list[dict], range_clamp_warnings: int) -> dict:
    """Per-layer figures for one traced round, derived from its spans.

    ``busy_s`` is the inclusive time of the outermost span of a name;
    ``self_s`` subtracts the time covered by direct child spans.  A track
    is a fallback when one of its child detections received the whole
    cloud rather than the crop around the previous pose.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)

    def duration(i):
        return spans[i]["end"] - spans[i]["start"]

    def outermost(i):
        name, p = spans[i]["name"], spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return False
            p = spans[p]["parent"]
        return True

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(duration(i) for i in by_name.get(name, ()) if outermost(i))

    def total(name, key):
        return sum(spans[i]["counts"].get(key, 0) for i in by_name.get(name, ()))

    fallbacks = 0
    for i in by_name.get("detect.track", ()):
        whole = spans[i]["counts"]["points_in"]
        if any(spans[c]["name"] == "detect.detect_ring"
               and spans[c]["counts"]["points_in"] == whole
               for c in children.get(i, ())):
            fallbacks += 1
    tracks = calls("detect.track")
    harness_self = sum(
        duration(i) - sum(duration(c) for c in children.get(i, ()))
        for i in by_name.get("harness.run_scenario", ()))

    return {
        "scene.render_cloud.calls": calls("scene.render_cloud"),
        "scene.render_cloud.busy_s": busy("scene.render_cloud"),
        "scene.render_cloud.rays": total("scene.render_cloud", "rays"),
        "scene.render_cloud.points": total("scene.render_cloud", "points"),
        "detect.detect_ring.calls": calls("detect.detect_ring"),
        "detect.detect_ring.busy_s": busy("detect.detect_ring"),
        "detect.detect_ring.points_in": total("detect.detect_ring", "points_in"),
        "detect.track.calls": tracks,
        "detect.track.busy_s": busy("detect.track"),
        "detect.track.fallbacks": fallbacks,
        "detect.track.crop_hit_ratio": (tracks - fallbacks) / tracks if tracks else 0.0,
        "fusion.marker_in_base.busy_s": busy("fusion.marker_in_base"),
        "fusion.fit_tcp_correction.busy_s": busy("fusion.fit_tcp_correction"),
        "handeye.plan_poses.busy_s": busy("handeye.plan_poses"),
        "handeye.solve_ax_xb.calls": calls("handeye.solve_ax_xb"),
        "handeye.solve_ax_xb.busy_s": busy("handeye.solve_ax_xb"),
        "handeye.reprojection_error.busy_s": busy("handeye.reprojection_error"),
        "respiration.extract_signal.busy_s": busy("respiration.extract_signal"),
        "respiration.estimate_period.busy_s": busy("respiration.estimate_period"),
        "respiration.detect_breath_hold.busy_s": busy("respiration.detect_breath_hold"),
        "respiration.motion_alarm.busy_s": busy("respiration.motion_alarm"),
        "respiration.samples": total("respiration.extract_signal", "samples"),
        "ply.write_cloud.busy_s": busy("ply.write_cloud"),
        "ply.write_cloud.bytes": total("ply.write_cloud", "bytes"),
        "camera.range_clamp_warnings": range_clamp_warnings,
        "harness.self_s": harness_self,
    }
