"""On-disk formats: landmark CSV, transform JSON, volume JSON + raw."""

import errno
import json
import os
import stat

import numpy as np
import pytest

from landreg import fileio
from landreg.core import AffineMatrix, AffineParams9, Point3, PointSet, Volume3, compose
from landreg.errors import FormatError
from landreg.fileio import (
    read_points,
    read_transform,
    read_volume,
    write_points,
    write_trace,
    write_transform,
    write_volume,
)


def test_points_round_trip_exact(tmp_path):
    path = tmp_path / "pts.csv"
    ps = PointSet(
        np.array([[1.25, -2.5, 3.0], [0.1, 0.2, 0.3], [1e-17, 12345.678901234567, -0.0]]),
        names=("apex", "base", "mid"),
    )
    write_points(ps, path)
    back = read_points(path)
    assert back.names == ("apex", "base", "mid")
    assert np.array_equal(back.coords, ps.coords)


def test_points_header_and_line_endings(tmp_path):
    path = tmp_path / "pts.csv"
    write_points(PointSet(np.array([[1.0, 2.0, 3.0]])), path)
    blob = path.read_bytes()
    assert blob.startswith(b"name,x,y,z\n")
    assert b"\r" not in blob


def test_points_default_names(tmp_path):
    path = tmp_path / "pts.csv"
    write_points(PointSet(np.zeros((3, 3))), path)
    assert read_points(path).names == ("p0", "p1", "p2")


def test_points_rejects_wrong_header(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y,z,name\na,1,2,3\n")
    with pytest.raises(FormatError):
        read_points(path)


def test_points_rejects_bad_rows(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("name,x,y,z\na,1,2\n")
    with pytest.raises(FormatError, match="line 2"):
        read_points(path)
    path.write_text("name,x,y,z\na,1,2,zebra\n")
    with pytest.raises(FormatError, match="line 2"):
        read_points(path)


def test_points_rejects_empty_files(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        read_points(path)
    path.write_text("name,x,y,z\n")
    with pytest.raises(FormatError):
        read_points(path)


def test_points_rejects_non_finite(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("name,x,y,z\na,1,nan,3\n")
    with pytest.raises(FormatError):
        read_points(path)


def test_points_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_points(tmp_path / "nope.csv")


def test_transform_round_trip_with_params(tmp_path):
    path = tmp_path / "t.json"
    params = AffineParams9((1, -2, 3), (0.1, -0.2, 0.3), (1.5, 0.8, 1.1))
    matrix = compose(params)
    write_transform(matrix, path, params=params)
    back = read_transform(path)
    assert np.array_equal(back.matrix, matrix.matrix)
    payload = json.loads(path.read_text())
    assert payload["matrix"] == [float(v) for v in matrix.matrix.reshape(-1)]
    assert payload["params"] == {
        "t": list(params.t),
        "r": list(params.r),
        "s": list(params.s),
    }


def test_transform_params_derived_when_omitted(tmp_path):
    path = tmp_path / "t.json"
    write_transform(compose(AffineParams9((0, 0, 0), (0, 0, 0), (2, 2, 2))), path)
    payload = json.loads(path.read_text())
    assert payload["params"]["s"] == [2.0, 2.0, 2.0]


def test_transform_sheared_matrix_written_without_params(tmp_path):
    path = tmp_path / "t.json"
    sheared = np.eye(3)
    sheared[0, 1] = 0.5
    matrix = AffineMatrix.from_linear_translation(sheared, [0, 0, 0])
    write_transform(matrix, path)
    payload = json.loads(path.read_text())
    assert "params" not in payload
    assert np.array_equal(read_transform(path).matrix, matrix.matrix)


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"no_matrix": true}',
        '{"matrix": [1, 0, 0, 0]}',
        '{"matrix": [1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,2]}',
        '{"matrix": [0,0,0,0, 0,0,0,0, 0,0,0,0, 0,0,0,1]}',
        # strings and booleans are not numbers, even where float() takes them
        '{"matrix": ["1",0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1]}',
        '{"matrix": [true,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1]}',
        '{"matrix": ["1e0",0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1]}',
    ],
)
def test_transform_rejects_malformed(tmp_path, text):
    path = tmp_path / "t.json"
    path.write_text(text)
    with pytest.raises(FormatError):
        read_transform(path)


def test_volume_round_trip_narrows_to_f32(tmp_path):
    path = tmp_path / "vol.json"
    data = np.linspace(0.0, 1.0, 24) + 1e-9
    vol = Volume3(dims=(4, 3, 2), spacing=(0.5, 1.0, 2.5), origin=Point3(-1, 2, 3), data=data)
    write_volume(vol, path)
    back = read_volume(path)
    assert back.dims == vol.dims
    assert back.spacing == vol.spacing
    assert back.origin == vol.origin
    assert np.array_equal(back.data, data.astype(np.float32).astype(float))
    assert (tmp_path / "vol.raw").exists()


def test_volume_raw_is_little_endian_f32_x_fastest(tmp_path):
    path = tmp_path / "vol.json"
    vol = Volume3(dims=(2, 1, 2), spacing=(1, 1, 1), data=np.array([1.0, 2.0, 3.0, 4.0]))
    write_volume(vol, path)
    blob = (tmp_path / "vol.raw").read_bytes()
    assert np.array_equal(np.frombuffer(blob, dtype="<f4"), [1.0, 2.0, 3.0, 4.0])
    assert json.loads(path.read_text())["data"] == "vol.raw"


def test_volume_rejects_bad_headers(tmp_path):
    raw = tmp_path / "v.raw"
    raw.write_bytes(b"\x00" * 4)
    base = {
        "dims": [1, 1, 1],
        "spacing": [1.0, 1.0, 1.0],
        "origin": [0.0, 0.0, 0.0],
        "dtype": "f32",
        "data": "v.raw",
    }
    for mutate in (
        lambda d: d.pop("dims"),
        lambda d: d.update(dims=[1, 1]),
        lambda d: d.update(dims=[1, 1, 1.5]),
        lambda d: d.update(dims=[0, 1, 1]),
        lambda d: d.update(spacing=[1.0, 0.0, 1.0]),
        lambda d: d.update(spacing=["1", 1.0, 1.0]),
        lambda d: d.update(spacing=[1.0, True, 1.0]),
        lambda d: d.update(origin=[0.0, 0.0, "1e0"]),
        lambda d: d.update(origin=[False, 0.0, 0.0]),
        lambda d: d.update(origin=5),
        lambda d: d.update(dims=[1, 1, 10**400]),
        lambda d: d.update(dtype="f64"),
        lambda d: d.update(data=17),
        lambda d: d.update(data=str(raw)),
        lambda d: d.update(data=f"../{tmp_path.name}/v.raw"),
    ):
        payload = dict(base)
        mutate(payload)
        path = tmp_path / "v.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            read_volume(path)


def test_volume_header_named_raw_is_refused_before_writing(tmp_path):
    vol = Volume3(dims=(2, 1, 1), spacing=(1, 1, 1), data=np.array([1.0, 2.0]))
    with pytest.raises(FormatError, match="may not end in '.raw'"):
        write_volume(vol, tmp_path / "x.raw")
    assert list(tmp_path.iterdir()) == []
    # any other header name round-trips, including one ending in '.raw.json'
    write_volume(vol, tmp_path / "x.raw.json")
    assert np.array_equal(read_volume(tmp_path / "x.raw.json").data, vol.data)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.raw.json", "x.raw.raw"]


def test_volume_rejects_raw_size_mismatch(tmp_path):
    path = tmp_path / "v.json"
    vol = Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=np.zeros(8))
    write_volume(vol, path)
    (tmp_path / "v.raw").write_bytes(b"\x00" * 12)
    with pytest.raises(FormatError, match="12 bytes"):
        read_volume(path)


def test_volume_missing_raw_raises_oserror(tmp_path):
    path = tmp_path / "v.json"
    write_volume(Volume3(dims=(1, 1, 1), spacing=(1, 1, 1)), path)
    (tmp_path / "v.raw").unlink()
    with pytest.raises(OSError):
        read_volume(path)


def test_write_trace_format(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace([(0, 1.5), (100, 0.25)], path)
    assert path.read_text() == "iteration,loss\n0,1.5\n100,0.25\n"


# Outputs are rewritten in place; these pin what that path must keep.


def test_shorter_transform_over_a_longer_one_matches_a_fresh_write(tmp_path):
    params = AffineParams9((1, -2, 3), (0.1, -0.2, 0.3), (1.5, 0.8, 1.1))
    sheared = np.eye(3)
    sheared[0, 1] = 0.5
    matrix = AffineMatrix.from_linear_translation(sheared, [0, 0, 0])
    fresh = tmp_path / "fresh.json"
    write_transform(matrix, fresh)
    path = tmp_path / "t.json"
    write_transform(compose(params), path, params=params)
    assert path.stat().st_size > fresh.stat().st_size
    write_transform(matrix, path)
    assert path.read_bytes() == fresh.read_bytes()


def test_smaller_volume_over_a_larger_one_leaves_no_old_tail(tmp_path):
    path = tmp_path / "v.json"
    write_volume(Volume3(dims=(4, 4, 4), spacing=(1, 1, 1), data=np.ones(64)), path)
    small = Volume3(dims=(2, 2, 2), spacing=(1, 1, 1), data=np.arange(8.0))
    write_volume(small, path)
    assert (tmp_path / "v.raw").stat().st_size == 32
    assert np.array_equal(read_volume(path).data, small.data)


def test_writing_through_a_symlink_updates_its_target(tmp_path):
    target = tmp_path / "target.csv"
    link = tmp_path / "link.csv"
    write_points(PointSet(np.zeros((5, 3))), target)
    link.symlink_to(target.name)
    points = PointSet(np.array([[1.0, 2.0, 3.0]]), names=("a",))
    write_points(points, link)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == b"name,x,y,z\na,1.0,2.0,3.0\n"


def test_rewrite_keeps_mode_and_hard_links(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace([(0, 1.5), (100, 0.25), (200, 0.125)], path)
    path.chmod(0o600)
    other = tmp_path / "other.csv"
    os.link(path, other)
    write_trace([(0, 1.5)], path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert other.read_bytes() == path.read_bytes() == b"iteration,loss\n0,1.5\n"


def test_failed_write_leaves_an_empty_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old" * 100)
    real_write = os.write

    def write_part_then_fail(fd, data):
        real_write(fd, bytes(data[:10]))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", write_part_then_fail)
    with pytest.raises(OSError, match="No space left"):
        fileio.write_file(path, b"new" * 50)
    assert path.read_bytes() == b""


def test_failed_cut_after_a_failed_write_raises_the_write_error(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old" * 100)

    def fail_to_write(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def fail_to_cut(fd, length):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "write", fail_to_write)
    monkeypatch.setattr(os, "ftruncate", fail_to_cut)
    with pytest.raises(OSError, match="No space left"):
        fileio.write_file(path, b"new" * 50)


def test_writing_to_a_file_that_is_not_regular():
    # ftruncate on a character device fails with EINVAL, so it must not be cut
    fileio.write_file(os.devnull, b"x")
