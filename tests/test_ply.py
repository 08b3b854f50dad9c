import numpy as np
import pytest

from specklenav.ply import read_cloud, sidecar_path, write_cloud
from specklenav.scene import PointCloud


def random_cloud(seed: int, n: int = 200) -> PointCloud:
    rng = np.random.default_rng(seed)
    return PointCloud(points=rng.normal(0.0, 250.0, (n, 3)),
                      timestamp_s=float(rng.uniform(0, 100)), seed=seed)


def test_roundtrip_is_bit_exact(tmp_path):
    cloud = random_cloud(1)
    path = write_cloud(tmp_path / "c.ply", cloud)
    back = read_cloud(path)
    assert np.array_equal(back.points, cloud.points)
    assert back.timestamp_s == cloud.timestamp_s
    assert back.seed == cloud.seed


def test_header_and_sidecar_content(tmp_path):
    cloud = random_cloud(2, n=5)
    path = write_cloud(tmp_path / "c.ply", cloud)
    text = path.read_text().splitlines()
    assert text[0] == "ply"
    assert text[1] == "format ascii 1.0"
    assert "element vertex 5" in text
    assert text[-1].count(" ") == 2
    meta = sidecar_path(path)
    assert meta.name == "c.json"
    assert meta.exists()


def test_written_floats_are_plain_ascii(tmp_path):
    """Every vertex line must parse as three bare floats."""
    path = write_cloud(tmp_path / "c.ply", random_cloud(3, n=20))
    lines = path.read_text().splitlines()
    body = lines[lines.index("end_header") + 1:]
    assert len(body) == 20
    for line in body:
        parts = line.split()
        assert len(parts) == 3
        for p in parts:
            float(p)


def _reference_ply_text(cloud: PointCloud) -> str:
    """The per-element formatter the writer used before ``tolist``."""
    lines = [
        "ply",
        "format ascii 1.0",
        "comment specklenav point cloud (mm, camera frame)",
        f"element vertex {len(cloud)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    for x, y, z in cloud.points:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r}")
    return "\n".join(lines) + "\n"


def test_file_bytes_match_the_reference_formatter(tmp_path):
    rng = np.random.default_rng(9)
    special = [[1e-7, -0.0, 0.0], [-1e-7, 5e-324, -2.5e-310], [1e16, -1e22, 123456789.125],
               [0.1, 1.0 / 3.0, -700.0], [np.nextafter(250.0, 0.0), 250.0, 1e-300]]
    # More rows than one write block, so block edges are crossed.
    points = np.vstack([special, rng.normal(0.0, 300.0, (9000, 3)),
                        rng.uniform(-1.0, 1.0, (100, 3)) * 10.0 ** rng.integers(-12, 12, (100, 3))])
    for n in (len(points), 1, 0):
        cloud = PointCloud(points=points[:n], timestamp_s=1.5, seed=4)
        path = write_cloud(tmp_path / "c.ply", cloud)
        assert path.read_bytes() == _reference_ply_text(cloud).encode()
    assert "1e-07 -0.0 0.0" in _reference_ply_text(PointCloud(points[:1], 0.0, 0))


def test_read_rejects_non_ply(tmp_path):
    bad = tmp_path / "x.ply"
    bad.write_text("hello\n")
    with pytest.raises(ValueError):
        read_cloud(bad)


def test_read_rejects_binary_format(tmp_path):
    bad = tmp_path / "x.ply"
    bad.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(ValueError):
        read_cloud(bad)


def test_missing_sidecar_is_an_error(tmp_path):
    cloud = random_cloud(4, n=3)
    path = write_cloud(tmp_path / "c.ply", cloud)
    sidecar_path(path).unlink()
    with pytest.raises(FileNotFoundError):
        read_cloud(path)


@pytest.mark.parametrize("sidecar", ['{"timestamp_s": 0.5}', '{"seed": 7}',
                                     '{"timestamp_s": 0.5, "seed": null}', "[0.5, 7]"])
def test_a_sidecar_without_its_keys_is_a_value_error(tmp_path, sidecar):
    path = write_cloud(tmp_path / "c.ply", random_cloud(5, n=3))
    sidecar_path(path).write_text(sidecar)
    with pytest.raises(ValueError, match="timestamp_s and seed"):
        read_cloud(path)


def test_unterminated_header_is_an_error(tmp_path):
    bad = tmp_path / "x.ply"
    bad.write_text("ply\nformat ascii 1.0\nelement vertex 3\n")
    with pytest.raises(ValueError):
        read_cloud(bad)


def test_single_point_roundtrip(tmp_path):
    cloud = PointCloud(points=np.array([[0.1, -0.2, 399.75]]),
                       timestamp_s=0.5, seed=7)
    back = read_cloud(write_cloud(tmp_path / "one.ply", cloud))
    assert np.array_equal(back.points, cloud.points)


@pytest.mark.parametrize("count, body, found", [
    (3, "1 2\n3 4\n5 6\n", "3 vertex rows of 2 values"),
    (5, "1 2 3\n4 5 6\n", "2 vertex rows of 3 values"),
    (1, "0.5 -0.25\n", "1 vertex rows of 2 values"),
])
def test_read_rejects_a_body_short_of_its_header(tmp_path, count, body, found):
    path = tmp_path / "c.ply"
    path.write_text("ply\nformat ascii 1.0\n"
                    f"element vertex {count}\n"
                    "property double x\nproperty double y\nproperty double z\n"
                    "end_header\n" + body)
    sidecar_path(path).write_text('{"timestamp_s": 0.0, "seed": 1}')
    with pytest.raises(ValueError, match=found):
        read_cloud(path)
