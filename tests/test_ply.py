import struct

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


HEADER = ("ply\nformat binary_little_endian 1.0\n"
          "comment specklenav point cloud (mm, camera frame)\n"
          "element vertex {count}\nproperty double x\nproperty double y\n"
          "property double z\nend_header\n")


def test_header_and_sidecar_content(tmp_path):
    cloud = random_cloud(2, n=5)
    path = write_cloud(tmp_path / "c.ply", cloud)
    head, body = path.read_bytes().split(b"end_header\n")
    text = head.decode("ascii").splitlines()
    assert text[0] == "ply"
    assert text[1] == "format binary_little_endian 1.0"
    assert "element vertex 5" in text
    assert len(body) == 5 * 3 * 8
    meta = sidecar_path(path)
    assert meta.name == "c.json"
    assert meta.exists()


def test_body_is_the_little_endian_float64_rows(tmp_path):
    cloud = random_cloud(3, n=20)
    body = write_cloud(tmp_path / "c.ply", cloud).read_bytes().split(b"end_header\n")[1]
    assert np.array_equal(np.frombuffer(body, "<f8").reshape(20, 3), cloud.points)


def _reference_ply_bytes(cloud: PointCloud) -> bytes:
    """The header, then each coordinate packed on its own as a little-endian double."""
    body = b"".join(struct.pack("<ddd", *map(float, row)) for row in cloud.points)
    return HEADER.format(count=len(cloud)).encode("ascii") + body


def test_file_bytes_match_the_reference_formatter(tmp_path):
    rng = np.random.default_rng(9)
    special = [[1e-7, -0.0, 0.0], [-1e-7, 5e-324, -2.5e-310], [1e16, -1e22, 123456789.125],
               [0.1, 1.0 / 3.0, -700.0], [np.nextafter(250.0, 0.0), 250.0, 1e-300]]
    points = np.vstack([special, rng.normal(0.0, 300.0, (9000, 3)),
                        rng.uniform(-1.0, 1.0, (100, 3)) * 10.0 ** rng.integers(-12, 12, (100, 3))])
    for n in (len(points), 1, 0):
        cloud = PointCloud(points=points[:n], timestamp_s=1.5, seed=4)
        path = write_cloud(tmp_path / "c.ply", cloud)
        assert path.read_bytes() == _reference_ply_bytes(cloud)
        back = read_cloud(path).points
        assert np.array_equal(back, cloud.points)
        assert np.array_equal(np.signbit(back), np.signbit(cloud.points))


def test_read_rejects_non_ply(tmp_path):
    bad = tmp_path / "x.ply"
    bad.write_text("hello\n")
    with pytest.raises(ValueError):
        read_cloud(bad)


def write_body(path, count: int, body: bytes, fmt: str = "binary_little_endian 1.0") -> None:
    path.write_bytes(HEADER.format(count=count).replace(
        "binary_little_endian 1.0", fmt).encode("ascii") + body)
    sidecar_path(path).write_text('{"timestamp_s": 0.0, "seed": 1}')


def test_read_rejects_binary_format(tmp_path):
    """Big-endian binary is a format the reader does not take."""
    path = tmp_path / "x.ply"
    write_body(path, 1, np.ones(3, ">f8").tobytes(), "binary_big_endian 1.0")
    with pytest.raises(ValueError, match="PLY format binary_big_endian 1.0; only "
                                         "binary_little_endian 1.0 is read"):
        read_cloud(path)


@pytest.mark.parametrize("fmt", ["ascii 1.0", "binary_little_endian 2.0"])
def test_read_rejects_a_format_other_than_binary_little_endian(tmp_path, fmt):
    path = tmp_path / "x.ply"
    write_body(path, 2, b"1 2 3\n4 5 6\n" if fmt.startswith("ascii") else bytes(48), fmt)
    with pytest.raises(ValueError, match=f"PLY format {fmt}; only"):
        read_cloud(path)


def test_read_rejects_a_header_without_a_format(tmp_path):
    path = tmp_path / "x.ply"
    path.write_bytes(HEADER.format(count=0).replace(
        "format binary_little_endian 1.0\n", "").encode("ascii"))
    with pytest.raises(ValueError, match="PLY format None"):
        read_cloud(path)


def test_read_rejects_properties_that_are_not_doubles(tmp_path):
    path = tmp_path / "x.ply"
    path.write_bytes(HEADER.format(count=1).replace("double z", "float z").encode("ascii")
                     + bytes(20))
    with pytest.raises(ValueError, match="unexpected vertex properties"):
        read_cloud(path)


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
    bad.write_text("ply\nformat binary_little_endian 1.0\nelement vertex 3\n")
    with pytest.raises(ValueError, match="unterminated PLY header"):
        read_cloud(bad)


def test_single_point_roundtrip(tmp_path):
    cloud = PointCloud(points=np.array([[0.1, -0.2, 399.75]]),
                       timestamp_s=0.5, seed=7)
    back = read_cloud(write_cloud(tmp_path / "one.ply", cloud))
    assert np.array_equal(back.points, cloud.points)


@pytest.mark.parametrize("count, size", [(3, 64), (3, 80), (2, 44)],
                         ids=["short-by-8", "long-by-8", "short-by-4"])
def test_read_rejects_a_body_of_another_size(tmp_path, count, size):
    path = tmp_path / "c.ply"
    write_body(path, count, bytes(size))
    with pytest.raises(ValueError, match=f"has a {size}-byte body; its header declares "
                                         f"{count} rows of 3 doubles, {count * 24} bytes$"):
        read_cloud(path)


def test_a_truncated_run_artifact_is_rejected(tmp_path):
    path = write_cloud(tmp_path / "c.ply", random_cloud(6, n=50))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="1192-byte body"):
        read_cloud(path)


@pytest.mark.filterwarnings("error")
def test_an_empty_body_raises_without_a_warning(tmp_path):
    path = tmp_path / "c.ply"
    write_body(path, 2, b"")
    with pytest.raises(ValueError, match="has a 0-byte body; its header declares 2 rows of 3"):
        read_cloud(path)


@pytest.mark.filterwarnings("error")
def test_an_empty_cloud_roundtrips_without_a_warning(tmp_path):
    cloud = PointCloud(points=np.zeros((0, 3)), timestamp_s=1.5, seed=3)
    back = read_cloud(write_cloud(tmp_path / "empty.ply", cloud))
    assert back.points.shape == (0, 3)
    assert (back.timestamp_s, back.seed) == (1.5, 3)
