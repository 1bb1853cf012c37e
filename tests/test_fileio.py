"""On-disk formats: landmark CSV, transform JSON, volume JSON + raw."""

import errno
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, strategies as st

from landreg import fileio
from landreg.core import AffineMatrix, AffineParams9, Point3, PointSet, Volume3, compose
from landreg.cli import main
from landreg.errors import FormatError, LandregError
from landreg.fileio import (
    read_points,
    read_transform,
    read_volume,
    read_volume_header,
    volume_data_path,
    volume_raw_path,
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


# What read_points accepts beyond the files write_points makes.

POINTS = np.array([[1.5, -2.0, 3.25], [0.0, 4.0, -0.5]])


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_points_accept_any_line_ending(tmp_path, ending):
    path = tmp_path / "pts.csv"
    path.write_bytes(ending.join(["name,x,y,z", "a,1.5,-2.0,3.25", "b,0,4,-0.5", ""]).encode())
    back = read_points(path)
    assert back.names == ("a", "b")
    assert np.array_equal(back.coords, POINTS)


def test_points_quoted_name_may_hold_a_comma(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text('name,x,y,z\n"apex, left",1.5,-2.0,3.25\nb,0,4,-0.5\n')
    assert read_points(path).names == ("apex, left", "b")
    write_points(read_points(path), path)
    assert path.read_text().splitlines()[1] == '"apex, left",1.5,-2.0,3.25'


def test_points_skip_blank_lines_and_count_them(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("name,x,y,z\n\na,1.5,-2.0,3.25\n\n\nb,0,4,-0.5\n\n")
    back = read_points(path)
    assert back.names == ("a", "b")
    assert np.array_equal(back.coords, POINTS)
    path.write_text("name,x,y,z\n\na,1.5,-2.0,3.25\n\nb,0,4\n")
    with pytest.raises(FormatError, match="line 5: expected 4 fields, got 3"):
        read_points(path)


def test_points_header_cells_may_carry_spaces(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text(" name , x ,y,  z\na,1.5,-2.0,3.25\nb,0,4,-0.5\n")
    assert np.array_equal(read_points(path).coords, POINTS)


def test_points_with_a_byte_order_mark_is_a_header_error(tmp_path, capsys):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"\xef\xbb\xbfname,x,y,z\na,1.5,-2.0,3.25\n")
    with pytest.raises(FormatError, match=r"expected header 'name,x,y,z', got '\\ufeffname,x,y,z'$"):
        read_points(path)
    assert main(["register", str(path), str(path), str(tmp_path / "t.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "expected header" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "row, message",
    [
        (b"b,0,\xff4,-0.5", "'utf-8' codec can't decode byte 0xff in position 31: invalid start byte"),
        (b"b,0,4\x00,-0.5", "line 3: could not convert string to float: '4\\x00'"),
    ],
    ids=["invalid-utf-8", "nul-byte"],
)
def test_points_undecodable_content_is_one_error_line(tmp_path, capsys, row, message):
    moving, fixed = tmp_path / "moving.csv", tmp_path / "fixed.csv"
    moving.write_bytes(b"name,x,y,z\na,1.5,-2.0,3.25\n" + row + b"\nc,7,0,1\n")
    write_points(PointSet(np.vstack([POINTS, [7, 0, 1]]), names=("a", "b", "c")), fixed)
    assert main(["register", str(moving), str(fixed), str(tmp_path / "t.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {moving}: {message}\n"
    assert not (tmp_path / "t.json").exists()


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


# write_transform formats its JSON directly; these pin it to json's own layout.


def json_transform_bytes(matrix, params):
    payload = {"matrix": [float(v) for v in matrix.matrix.reshape(-1)]}
    if params is not None:
        payload["params"] = {"t": list(params.t), "r": list(params.r), "s": list(params.s)}
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


translations = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -9.99e299]),
)


@given(
    t=st.tuples(translations, translations, translations),
    r=st.tuples(*[st.floats(-3.2, 3.2)] * 3),
    s=st.tuples(*[st.floats(1e-3, 1e3)] * 3),
)
def test_transform_bytes_are_json_dumps_with_indent(tmp_path_factory, t, r, s):
    params = AffineParams9(t, r, s)
    try:
        matrix = compose(params)
    except LandregError:
        return  # a transform outside the matrix contract is never written
    path = tmp_path_factory.mktemp("t") / "t.json"
    write_transform(matrix, path, params=params)
    assert path.read_bytes() == json_transform_bytes(matrix, params)


def test_sheared_transform_bytes_are_json_dumps_with_indent(tmp_path):
    path = tmp_path / "t.json"
    sheared = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.0], [1e-310, 0.0, 3.0]])
    matrix = AffineMatrix.from_linear_translation(sheared, [1e300, -0.0, 0.1])
    write_transform(matrix, path)
    assert path.read_bytes() == json_transform_bytes(matrix, None)
    assert b'"params"' not in path.read_bytes()


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_transform_errors_count_lines_as_a_text_mode_read_does(tmp_path, ending):
    path = tmp_path / "t.json"
    path.write_bytes(ending.join(["{", '  "matrix": [', "    1.0,", "    oops"]).encode())
    with pytest.raises(FormatError, match=r"line 4 column 5 \(char 29\)$"):
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


def test_read_volume_header_names_the_raw_file_without_reading_it(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(
        {"dims": [1, 1, 1], "spacing": [1.0, 1.0, 1.0], "origin": [0.0, 0.0, 0.0], "dtype": "f32",
         "data": "sub/payload.bin"}
    ))
    header = read_volume_header(path)
    assert header.data_path == os.path.join(str(tmp_path), "sub/payload.bin")
    assert (header.dims, header.spacing, header.origin, header.raw_name) == (
        (1, 1, 1), [1.0, 1.0, 1.0], Point3(0.0, 0.0, 0.0), "sub/payload.bin")
    path.write_text(json.dumps({"dims": [1, 1, 1], "data": "v.raw"}))
    with pytest.raises(FormatError, match="lacks 'spacing'"):
        read_volume_header(path)


def test_volume_data_path_names_the_raw_file_without_reading_it(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(
        {"dims": [1, 1, 1], "spacing": [1.0, 1.0, 1.0], "origin": [0.0, 0.0, 0.0], "dtype": "f32",
         "data": "sub/payload.bin"}
    ))
    assert volume_data_path(path) == os.path.join(str(tmp_path), "sub/payload.bin")
    path.write_text(json.dumps({"dims": [1, 1, 1], "data": "v.raw"}))
    with pytest.raises(FormatError, match="lacks 'spacing'"):
        volume_data_path(path)


def test_volume_header_named_raw_is_refused_before_writing(tmp_path):
    vol = Volume3(dims=(2, 1, 1), spacing=(1, 1, 1), data=np.array([1.0, 2.0]))
    with pytest.raises(FormatError, match="may not end in '.raw'"):
        write_volume(vol, tmp_path / "x.raw")
    assert list(tmp_path.iterdir()) == []
    # any other header name round-trips, including one ending in '.raw.json'
    write_volume(vol, tmp_path / "x.raw.json")
    assert np.array_equal(read_volume(tmp_path / "x.raw.json").data, vol.data)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.raw.json", "x.raw.raw"]


def test_volume_raw_path_is_where_write_volume_puts_the_raw_file(tmp_path):
    assert volume_raw_path("v.json") == "v.raw"
    assert volume_raw_path(os.path.join("a.d", "v")) == os.path.join("a.d", "v.raw")
    header = tmp_path / "v.json"
    write_volume(Volume3(dims=(2, 1, 1), spacing=(1, 1, 1), data=np.array([1.0, 2.0])), header)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json", "v.raw"]
    assert volume_raw_path(header) == volume_data_path(header) == str(tmp_path / "v.raw")


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
