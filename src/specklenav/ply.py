"""ASCII PLY export and import for point clouds.

Coordinates are written with shortest round-trip formatting, so a
write/read cycle reproduces the exact float64 values.  A JSON sidecar
next to each .ply file carries the acquisition timestamp and the RNG
seed used to synthesize the cloud.
"""
from __future__ import annotations

import json
import warnings
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
        body = f.tell()
        try:
            with warnings.catch_warnings():
                # An empty body is reported below, as rows short of the header.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(f, dtype=float, max_rows=count, ndmin=2)
        except ValueError:
            f.seek(body)
            _raise_for_a_ragged_row(path, f, count)
            raise
    if len(data) != count or (count and data.shape[1] < len(props)):
        found = f" of {data.shape[1]} values" if len(data) else ""
        raise ValueError(f"{path} has {len(data)} vertex rows{found}; "
                         f"its header declares {count} rows of {len(props)}")
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise FileNotFoundError(f"missing sidecar {meta_file}")
    meta = json.loads(meta_file.read_text())
    try:
        timestamp_s, seed = float(meta["timestamp_s"]), int(meta["seed"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"sidecar {meta_file} needs a numeric timestamp_s and "
                         f"seed: {exc!r}") from exc
    return PointCloud(points=data[:, :3], timestamp_s=timestamp_s, seed=seed)


def _raise_for_a_ragged_row(path, body, count: int) -> None:
    """Raise if a vertex row of ``body`` has another count of values than the first.

    Rows are counted as ``np.loadtxt`` counts them: blank lines and ``#``
    comments are skipped.
    """
    width = None
    row = 0
    for line in body:
        values = line.split("#")[0].split()
        if not values:
            continue
        row += 1
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(f"{path}: vertex row {row} has {len(values)} values, "
                             f"vertex row 1 has {width}")
        if row == count:
            return
