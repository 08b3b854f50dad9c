"""Binary PLY export and import for point clouds.

Clouds are written as ``binary_little_endian 1.0`` rows of float64 x, y,
z, so a write/read cycle reproduces the exact values; the reader takes
that format only.  A JSON sidecar next to each .ply file carries the
acquisition timestamp and the RNG seed used to synthesize the cloud.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .scene import PointCloud


_FORMAT = "binary_little_endian 1.0"
_HEADER = (f"ply\nformat {_FORMAT}\ncomment specklenav point cloud (mm, camera frame)\n"
           "element vertex {count}\nproperty double x\nproperty double y\n"
           "property double z\nend_header\n")


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def write_cloud(path, cloud: PointCloud) -> Path:
    """Write a binary PLY file plus its JSON sidecar. Returns the PLY path."""
    path = Path(path)
    with path.open("wb") as f:
        f.write(_HEADER.format(count=len(cloud)).encode("ascii"))
        f.write(np.ascontiguousarray(cloud.points, "<f8").tobytes())
    meta = {"timestamp_s": cloud.timestamp_s, "seed": cloud.seed, "point_count": len(cloud)}
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def read_cloud(path) -> PointCloud:
    """Read a cloud written by ``write_cloud`` (sidecar required)."""
    path = Path(path)
    with path.open("rb") as f:
        if f.readline().strip() != b"ply":
            raise ValueError(f"{path} is not a PLY file")
        fmt, count, props = None, None, []
        while True:
            line = f.readline()
            if not line:
                raise ValueError("unterminated PLY header")
            words = line.decode("ascii").split()
            if words[:1] == ["format"]:
                fmt = " ".join(words[1:])
            elif words[:2] == ["element", "vertex"]:
                count = int(words[-1])
            elif words[:1] == ["property"]:
                props.append(" ".join(words[1:]))
            elif words == ["end_header"]:
                break
        body = f.read()
    if fmt != _FORMAT:
        raise ValueError(f"{path} has PLY format {fmt}; only {_FORMAT} is read")
    if count is None:
        raise ValueError("PLY header lacks a vertex element")
    if props[:3] != ["double x", "double y", "double z"] or any(
            not p.startswith("double ") for p in props):
        raise ValueError(f"unexpected vertex properties {props}")
    size = count * len(props) * 8
    if len(body) != size:
        raise ValueError(f"{path} has a {len(body)}-byte body; its header declares "
                         f"{count} rows of {len(props)} doubles, {size} bytes")
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise FileNotFoundError(f"missing sidecar {meta_file}")
    meta = json.loads(meta_file.read_text())
    try:
        timestamp_s, seed = float(meta["timestamp_s"]), int(meta["seed"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"sidecar {meta_file} needs a numeric timestamp_s and "
                         f"seed: {exc!r}") from exc
    points = np.frombuffer(body, "<f8").reshape(count, len(props))[:, :3]
    return PointCloud(points=points, timestamp_s=timestamp_s, seed=seed)
