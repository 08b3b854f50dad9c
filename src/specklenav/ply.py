"""ASCII PLY export and import for point clouds.

Coordinates are written with shortest round-trip formatting, so a
write/read cycle reproduces the exact float64 values.  A JSON sidecar
next to each .ply file carries the acquisition timestamp and the RNG
seed used to synthesize the cloud.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .scene import PointCloud


_ROWS_PER_WRITE = 4096


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def write_cloud(path, cloud: PointCloud) -> Path:
    """Write an ASCII PLY file plus its JSON sidecar. Returns the PLY path."""
    path = Path(path)
    header = [
        "ply",
        "format ascii 1.0",
        "comment specklenav point cloud (mm, camera frame)",
        f"element vertex {len(cloud)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    with path.open("w") as f:
        f.write("\n".join(header) + "\n")
        # Blocks of rows keep the formatted text small; tolist() yields
        # Python floats, whose repr is the shortest round trip.
        for start in range(0, len(cloud), _ROWS_PER_WRITE):
            rows = cloud.points[start:start + _ROWS_PER_WRITE].tolist()
            f.write("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in rows))
    sidecar_path(path).write_text(json.dumps({
        "timestamp_s": cloud.timestamp_s,
        "seed": cloud.seed,
        "point_count": len(cloud),
    }, indent=2, sort_keys=True) + "\n")
    return path


def read_cloud(path) -> PointCloud:
    """Read a cloud written by ``write_cloud`` (sidecar required)."""
    path = Path(path)
    with path.open() as f:
        line = f.readline().strip()
        if line != "ply":
            raise ValueError(f"{path} is not a PLY file")
        count = None
        props = []
        while True:
            line = f.readline()
            if not line:
                raise ValueError("unterminated PLY header")
            line = line.strip()
            if line.startswith("format"):
                if "ascii" not in line:
                    raise ValueError("only ascii PLY is supported")
            elif line.startswith("element vertex"):
                count = int(line.split()[-1])
            elif line.startswith("property"):
                props.append(line.split()[-1])
            elif line == "end_header":
                break
        if count is None:
            raise ValueError("PLY header lacks a vertex element")
        if props[:3] != ["x", "y", "z"]:
            raise ValueError(f"unexpected vertex properties {props}")
        data = np.loadtxt(f, dtype=float, max_rows=count, ndmin=2)
    if len(data) != count or (count and data.shape[1] < len(props)):
        raise ValueError(f"{path} has {len(data)} vertex rows of {data.shape[1]} values; "
                         f"its header declares {count} rows of {len(props)}")
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise FileNotFoundError(f"missing sidecar {meta_file}")
    meta = json.loads(meta_file.read_text())
    return PointCloud(points=data[:, :3], timestamp_s=float(meta["timestamp_s"]),
                      seed=int(meta["seed"]))
