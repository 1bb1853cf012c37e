"""On-disk formats: landmark CSV, transform JSON, and volume JSON + raw.

Point sets are CSV with the exact header ``name,x,y,z``, coordinates in
millimeters, UTF-8, written with LF line endings and read with LF, CRLF
or CR. Transforms are JSON objects with a 16-number row-major ``matrix``
and, when the matrix decomposes cleanly, a ``params`` object of t/r/s
triples, written with two-space indentation. Volumes are a JSON header describing
dims/spacing/origin plus a sibling raw file of little-endian 32-bit
floats in x-fastest order. All numbers are written at full precision;
any content-level problem raises :class:`FormatError`. Every file the
package writes goes through :func:`write_file`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
from contextlib import contextmanager, suppress
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import AffineMatrix, AffineParams9, Point3, PointSet, Volume3, decompose, require_integer, require_real, require_three
from .errors import DecompositionError, FormatError, LandregError

POINTS_HEADER = ("name", "x", "y", "z")
VOLUME_DTYPE = "f32"
_RAW_DTYPE = np.dtype("<f4")


def _require(condition: bool, path: str | os.PathLike, message: str) -> None:
    if not condition:
        raise FormatError(f"{path}: {message}")


@contextmanager
def _decoding(where: str | os.PathLike) -> Iterator[None]:
    """Report any failure to decode file content as :class:`FormatError`.

    Foreign exceptions become ``FormatError`` here, with one exception: a
    coordinate of a point file that is not a number, which
    :func:`read_points` reports itself with its line number. Converted
    here are bad encoding and bad JSON (both ``ValueError``), JSON values
    of the wrong type (``TypeError``), integers too large for a float,
    runaway nesting, CSV fields over the parser's limit and the library's
    own validation errors, each prefixed with ``where``. ``FormatError``
    passes unchanged, so a nested scope keeps its more precise location,
    and ``OSError`` passes as an I/O error.
    """
    try:
        yield
    except FormatError:
        raise
    except (ValueError, TypeError, OverflowError, RecursionError, csv.Error, LandregError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _read_text(path: str | os.PathLike) -> str:
    """The whole content of ``path``, read at once and decoded as UTF-8; line endings are kept."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read().decode("utf-8")


def _read_json(path: str | os.PathLike):
    """Parse ``path`` as JSON, with CRLF and CR line endings read as LF (as a text-mode open reads them)."""
    text = _read_text(path)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)


def write_file(path: str | os.PathLike, data) -> None:
    """Make ``data`` (bytes or any C-contiguous buffer) the whole content of ``path``.

    An existing file is rewritten in place: it is opened without truncation,
    overwritten from its start and then cut to the new length, so its inode,
    mode, hard links and any symlink in front of it are kept. (On an ext4
    disk a 900-byte rewrite took about 0.01 ms this way, and 0.1-5 ms when the
    open truncated the file to zero.) If anything raises before the final
    cut, the file is cut to zero bytes and the error re-raised, so a failed
    write leaves no old bytes behind a new prefix (unless that cut fails as
    well; the first error is the one raised). Rewriting in place is less
    safe than truncating on open in two cases: a process killed in
    mid-write, and a power loss or system crash before the new bytes reach
    the disk, can leave the file at its new length holding old bytes, or old
    and new bytes mixed, where truncating on open would more likely have
    left it short or empty. A file that is not regular, such as a pipe or
    ``/dev/null``, is written and never cut.
    """
    view = memoryview(data).cast("B")
    size = view.nbytes
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            while view:
                view = view[os.write(fd, view):]
            if regular:
                os.ftruncate(fd, size)
        except BaseException:
            if regular:
                with suppress(OSError):
                    os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def read_points(path: str | os.PathLike) -> PointSet:
    """Read a landmark CSV (header ``name,x,y,z``, mm)."""
    with _decoding(path):
        rows = list(csv.reader(io.StringIO(_read_text(path), newline="")))
        _require(bool(rows), path, "empty point file")
        if tuple(cell.strip() for cell in rows[0]) != POINTS_HEADER:
            raise FormatError(f"{path}: expected header 'name,x,y,z', got {','.join(rows[0])!r}")
        names: list[str] = []
        coords: list[tuple[float, float, float]] = []
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != 4:
                if not row:
                    continue
                raise FormatError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            try:
                coords.append((float(row[1]), float(row[2]), float(row[3])))
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from exc
            names.append(row[0])
        _require(bool(coords), path, "point file holds no points")
        return PointSet(np.asarray(coords, dtype=float), names=tuple(names))


def write_points(points: PointSet, path: str | os.PathLike) -> None:
    """Write a landmark CSV; unnamed points get names p0, p1, ..."""
    names = points.names
    if names is None:
        names = tuple(f"p{i}" for i in range(len(points)))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(POINTS_HEADER)
    for name, (x, y, z) in zip(names, points.coords):
        writer.writerow([name, repr(float(x)), repr(float(y)), repr(float(z))])
    write_file(path, text.getvalue().encode("utf-8"))


def read_transform(path: str | os.PathLike) -> AffineMatrix:
    """Read a transform JSON; the row-major ``matrix`` field is authoritative."""
    with _decoding(path):
        payload = _read_json(path)
        _require(isinstance(payload, dict), path, "transform file must hold a JSON object")
        _require("matrix" in payload, path, "transform file lacks a 'matrix' field")
        entries = payload["matrix"]
        _require(
            isinstance(entries, list) and len(entries) == 16,
            path,
            "'matrix' must be a list of 16 numbers (row-major)",
        )
        return AffineMatrix(np.array([require_real(v, "'matrix' entry") for v in entries]).reshape(4, 4))


def write_transform(
    transform: AffineMatrix,
    path: str | os.PathLike,
    params: AffineParams9 | None = None,
) -> None:
    """Write a transform JSON with the matrix and, when available, its params.

    Without an explicit ``params`` the matrix is decomposed; a matrix
    outside the nine-parameter family (shear, gimbal lock) is written
    with the matrix field only.
    """
    if params is None:
        try:
            params = decompose(transform)
        except DecompositionError:
            params = None
    # The bytes of json.dumps(payload, indent=2) + "\n", formatted directly: with an indent, json runs
    # its pure-Python encoder. Every number is a finite float, which json writes as its repr.
    text = '{\n  "matrix": [\n    ' + ",\n    ".join(map(repr, transform.matrix.reshape(-1).tolist())) + "\n  ]"
    if params is not None:
        blocks = (
            f'"{key}": [\n      ' + ",\n      ".join(map(repr, map(float, values))) + "\n    ]"
            for key, values in (("t", params.t), ("r", params.r), ("s", params.s))
        )
        text += ',\n  "params": {\n    ' + ",\n    ".join(blocks) + "\n  }"
    write_file(path, (text + "\n}\n").encode("ascii"))


class VolumeHeader(NamedTuple):
    """A volume header as :func:`read_volume_header` reads and checks it."""

    dims: tuple[int, int, int]
    spacing: object  # checked by Volume3
    origin: Point3
    raw_name: str  # the ``data`` entry
    data_path: str  # ``raw_name`` resolved against the header's directory


def read_volume_header(path: str | os.PathLike) -> VolumeHeader:
    """Read and check the volume header at ``path``, as :func:`read_volume` does; the raw file is not opened."""
    with _decoding(path):
        payload = _read_json(path)
        _require(isinstance(payload, dict), path, "volume header must be a JSON object")
        for key in ("dims", "spacing", "origin", "dtype", "data"):
            _require(key in payload, path, f"volume header lacks '{key}'")
        _require(
            payload["dtype"] == VOLUME_DTYPE,
            path,
            f"unsupported dtype {payload['dtype']!r}, expected '{VOLUME_DTYPE}'",
        )
        dims = tuple(require_integer(d, "dims", 1) for d in require_three(payload["dims"], "dims"))
        origin = Point3(*require_three(payload["origin"], "origin"))
        raw_name = payload["data"]
        _require(isinstance(raw_name, str), path, "'data' must be a path string")
        _require(
            not os.path.isabs(raw_name)
            and os.path.normpath(raw_name).split(os.sep)[0] != os.pardir,
            path,
            f"'data' must be a relative path inside the header's directory, got {raw_name!r}",
        )
        data_path = os.path.join(os.path.dirname(os.fspath(path)), raw_name)
        return VolumeHeader(dims, payload["spacing"], origin, raw_name, data_path)


def volume_data_path(path: str | os.PathLike) -> str:
    """The path of the raw file that the volume header at ``path`` names.

    The header is read and checked as :func:`read_volume` checks it; the
    raw file itself is not opened.
    """
    return read_volume_header(path).data_path


def read_volume(path: str | os.PathLike, header: VolumeHeader | None = None) -> Volume3:
    """Read a volume JSON header and its raw little-endian float32 payload.

    The ``data`` path is relative and resolved against the header's
    directory; a path that is absolute or leaves that directory is a
    :class:`FormatError`. A caller that has read the header at ``path``
    already passes it as ``header``, and it is not read again.
    """
    dims, spacing, origin, raw_name, data_path = header if header is not None else read_volume_header(path)
    with _decoding(path):
        with open(data_path, "rb") as fh:
            blob = fh.read()
        n = dims[0] * dims[1] * dims[2]
        _require(
            len(blob) == n * _RAW_DTYPE.itemsize,
            path,
            f"raw file {raw_name!r} holds {len(blob)} bytes, expected {n * _RAW_DTYPE.itemsize}",
        )
        data = np.frombuffer(blob, dtype=_RAW_DTYPE)  # Volume3 widens it in its one copy
        return Volume3(dims=dims, spacing=spacing, origin=origin, data=data)


def volume_raw_path(path: str | os.PathLike) -> str:
    """The path of the raw payload that :func:`write_volume` pairs with ``path``.

    It is the header's path with a ``.raw`` extension. A header path that
    itself ends in ``.raw`` would be overwritten by its payload, so it is a
    :class:`FormatError`; callers check it before computing a volume.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    raw_name = os.path.splitext(name)[0] + ".raw"
    _require(raw_name != name, path, "a volume header may not end in '.raw', the extension of its raw file")
    return os.path.join(head, raw_name)


def write_volume(volume: Volume3, path: str | os.PathLike) -> None:
    """Write a volume as JSON header plus raw float32 file.

    The raw file lands next to the header, at :func:`volume_raw_path`;
    values are narrowed to 32-bit floats. A header path ending in ``.raw``
    is a :class:`FormatError` and nothing is written.
    """
    path = os.fspath(path)
    raw_path = volume_raw_path(path)
    payload = {
        "dims": [int(d) for d in volume.dims],
        "spacing": [float(s) for s in volume.spacing],
        "origin": [volume.origin.x, volume.origin.y, volume.origin.z],
        "dtype": VOLUME_DTYPE,
        "data": os.path.basename(raw_path),
    }
    write_file(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    write_file(raw_path, np.ascontiguousarray(volume.data, dtype=_RAW_DTYPE))


def write_trace(trace: Sequence[tuple[int, float]], path: str | os.PathLike) -> None:
    """Write a refinement loss trace as ``iteration,loss`` CSV."""
    lines = [f"{int(iteration)},{repr(float(value))}\n" for iteration, value in trace]
    write_file(path, ("iteration,loss\n" + "".join(lines)).encode("utf-8"))
