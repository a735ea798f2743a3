"""File schemas and canonical serialization.

All machine artifacts are JSON (or JSON-lines for labels).  Writing is
canonical: keys sorted, no whitespace, floats at 17 significant digits.
Reading anything a writer produced and re-serializing it yields
byte-identical output, which the golden-file and determinism tests rely on.
A command's files reach their targets only if it succeeds (``Outputs``).

Schemas
-------
radar frame   {"timestamp_s": f, "points": [{"r_m", "az_rad", "el_rad",
              "v_mps", "rcs_dbsm"}, ...]}  (spherical variant)
              or points with {"x_m", "y_m", "z_m", "v_mps", "rcs_dbsm"}
              (cartesian variant); exactly one variant per file
corners       {"pose_id": i, "timestamp_s": f, "checkerboard":
              {"nx", "ny"}, "corners": [{"u_px", "v_px"}, ...]}
masks         {"width", "height", "instances": [{"instance_id",
              "class_id", "confidence", "rle": [start, len, ...]}]},
              run-length over row-major pixels, runs sorted, disjoint
calibration   {"rotation_row_major": [9], "axis_angle": [3],
              "translation_m": [3], "intrinsics": {...}, "mre_px",
              "rmse_px", "converged", "per_pose": [...], "config": {...}}
labels        JSON-lines {"point_index", "class_id", "instance_id",
              "provenance"}; ids are null for unlabeled points
intrinsics    {"fx", "fy", "cx", "cy", "width", "height"}

Reading
-------
orjson parses each data file, being several times faster than the json
module, and each reader checks the fields it reads.  On any fault the file is
parsed again by json, which words the message: json also reads ``NaN``,
``Infinity``, ``1e999`` and a lone surrogate, which orjson refuses, and an
integer past 64 bits as an int, where orjson reads a float that the field
check refuses.  So every value a reader accepts, and every message, is the
json module's.  orjson recurses without a depth limit, so a text with more
than ``_ORJSON_BRACKETS`` "[" and "{" goes to json alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import operator
import os
import tempfile
import typing
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .checkerboard import CheckerboardSpec, CornerSet
from .geometry import (
    CameraIntrinsics,
    Extrinsics,
    _check_rotation,
    cart2sph,
    nearest_rotation,
    rotvec_to_matrix,
    sph2cart,
)
from .reflector import RETURN_DTYPE, RadarFrame

if TYPE_CHECKING:
    # the labeling readers import these where they run, so reading a
    # calibration input loads no labeling code
    from .autolabel import InstanceMask, LabelColumns, PointCloud

__all__ = [
    "Outputs",
    "SchemaError",
    "canonical_json",
    "write_json",
    "write_text",
    "write_radar_frame",
    "write_radar_points",
    "load_radar_frame",
    "load_radar_frames",
    "load_radar_points",
    "write_corners",
    "load_corners",
    "write_masks",
    "load_masks",
    "write_calibration",
    "load_calibration",
    "write_labels",
    "load_labels",
    "write_intrinsics",
    "load_intrinsics",
]


class SchemaError(ValueError):
    """File content violates its schema."""


# What reading a parsed document's fields can raise: a missing key, a wrong
# type, a bad value, a number too large for its type (1e999 as an int), or
# JSON nested deeper than the parser recurses.
_BAD_FIELD = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


class Outputs(contextlib.AbstractContextManager):
    """The files one command writes, staged beside their targets; ``file``
    fails at once on a missing directory or a directory in the target's
    place.  When the ``with`` block ends without an exception each temp file
    replaces its target; when it raises each is removed, with every
    directory ``mkdir`` made.  A command replaces exactly the files it
    writes and deletes nothing else."""

    def __init__(self):
        self._made: list[Path] = []  # outermost first
        self._staged: list[tuple[str, Path]] = []  # (temp path, target)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        self._mode = 0o666 & ~umask  # a plain write's mode; mkstemp's is 0600

    def mkdir(self, path: str | Path) -> Path:
        path = Path(path)
        for directory in reversed([p for p in (path, *path.parents) if not p.exists()]):
            directory.mkdir()
            self._made.append(directory)
        return path

    def file(self, target: str | Path) -> Path:
        target = Path(target)
        if not target.parent.is_dir():
            raise FileNotFoundError(f"cannot write {target}: no directory {target.parent}")
        if target.is_dir():
            raise IsADirectoryError(f"cannot write {target}: it is a directory")
        fd, temp = tempfile.mkstemp(dir=target.parent, prefix=f"{target.name}.", suffix=".tmp")
        os.close(fd)
        self._staged.append((temp, target))
        os.chmod(temp, self._mode)
        return Path(temp)

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            while exc_type is None and self._staged:
                os.replace(*self._staged[-1])
                self._staged.pop()
        finally:
            for temp, _ in self._staged:  # every one after an exception
                os.unlink(temp)
        for directory in reversed(self._made) if exc_type else ():
            directory.rmdir()


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, compact, 17-significant-digit floats."""
    heads: dict = {}  # per dict key, its encoding and the colon, made once

    def encode(obj) -> str:
        kind = type(obj)  # the common exact types first
        if kind is float:
            return _format_float(obj)
        if kind is int:
            return str(obj)
        if kind is str:
            return json.dumps(obj, ensure_ascii=True)
        if obj is None:
            return "null"
        if isinstance(obj, (bool, np.bool_)):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return _format_float(float(obj))
        if isinstance(obj, str):
            return json.dumps(obj, ensure_ascii=True)
        if isinstance(obj, np.ndarray):
            return encode(obj.tolist())
        if isinstance(obj, (list, tuple)):
            return "[" + ",".join(map(encode, obj)) + "]"
        if isinstance(obj, dict):
            items = []
            for key in sorted(obj):
                head = heads.get(key)
                if head is None:
                    if not isinstance(key, str):
                        raise TypeError(f"JSON keys must be strings, got {key!r}")
                    head = heads[key] = json.dumps(key, ensure_ascii=True) + ":"
                items.append(head + encode(obj[key]))
            return "{" + ",".join(items) + "}"
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    return encode(obj)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; an error names ``path``."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from exc


def write_json(path: str | Path, obj) -> None:
    write_text(path, canonical_json(obj) + "\n")


# JSON kinds a value of each type takes: every reader's one field rule
_JSON_KINDS = {
    int: ("a JSON integer", {int}),
    float: ("a JSON number", {int, float}),
    str: ("a JSON string", {str}),
    list: ("a JSON array", {list}),
    dict: ("a JSON object", {dict}),
}


def _json_value(kind, value, name: str):
    """The field ``name`` of a parsed document read as the type ``kind``: a
    JSON integer (not a bool) that fits int64, a number (as a float), a
    string, array or object, a tuple's array, or a dataclass's object.  Each
    error names the field; no value is coerced or truncated."""
    if kind in _JSON_KINDS:  # the plain kinds first: they are the per-mask fields
        what, types = _JSON_KINDS[kind]
        if type(value) not in types:
            raise TypeError(f"{name} must be {what}, got {type(value).__name__}")
        if kind is int and not -(2**63) <= value < 2**63:
            raise OverflowError(f"{name} {value} does not fit a 64-bit integer")
        if kind is not float:
            return value
        try:
            return float(value)
        except OverflowError:
            raise OverflowError(f"{name} does not fit a float") from None
    if typing.get_origin(kind) is tuple:
        kinds = typing.get_args(kind)
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(_json_value(list, value, name))
        elif len(_json_value(list, value, name)) != len(kinds):
            raise ValueError(f"{name} must hold {len(kinds)} entries, got {len(value)}")
        return tuple(_json_value(kinds[i], v, f"{name}[{i}]") for i, v in enumerate(value))
    _json_value(dict, value, name)
    try:
        return _extrinsics(value) if kind is Extrinsics else _config(kind, value)
    except _BAD_FIELD as exc:
        raise ValueError(f"{name}: {_field_error(exc)}") from exc


def _field_error(exc: Exception) -> str:
    """The one wording of a field error: a KeyError is the key it misses."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _json_column(kind, values, name: str, nullable: bool = False):
    """The field ``name`` of many rows read as ``_json_value`` reads one, in
    one type-set check and one array: int64 or float64 for a number (with
    ``nullable``, nulls as 0 and their mask too), ``values`` otherwise.  For
    ``dict``, ``values`` is the JSON array ``name`` of rows (``points[2]``)."""
    if kind is dict:
        _json_value(list, values, name)
    types = _JSON_KINDS[kind][1] | ({type(None)} if nullable else set())
    seen = set(map(type, values))
    if not seen <= types:
        i = next(i for i, value in enumerate(values) if type(value) not in types)
        _json_value(kind, values[i], f"{name}[{i}]" if kind is dict else name)
    if kind is not int and kind is not float:
        return values
    dtype = np.int64 if kind is int else np.float64
    try:
        if type(None) not in seen:
            column = np.array(values, dtype=dtype)
            return (column, np.zeros(len(column), dtype=bool)) if nullable else column
        column = np.array(values, dtype=object)
        null = column == None  # noqa: E711 (elementwise on an object array)
        column[null] = 0
        return column.astype(dtype), null
    except OverflowError:
        for value in values:  # the first one past the range names the field
            if value is not None:
                _json_value(kind, value, name)
        raise


def _fields(kinds: dict, doc: dict) -> dict:
    """Each key of ``doc`` read as its type in ``kinds``; an unknown key or a
    bad value is an error naming the key."""
    unknown = doc.keys() - kinds.keys()
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)}")
    return {name: _json_value(kinds[name], value, name) for name, value in doc.items()}


@functools.cache
def _config_kinds(cls) -> tuple[dict, tuple]:
    """A dataclass's field types and the names of its fields without a
    default, resolved once per class; callers must not change them."""
    missing = dataclasses.MISSING
    return typing.get_type_hints(cls), tuple(
        f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is missing
    )


def _config(cls, doc: dict, **flags):
    """The dataclass ``cls`` of a parsed document, with the flags that were
    given set over it; each error names its field, a KeyError the field
    that has no default and no key."""
    kinds, required = _config_kinds(cls)
    values = _fields(kinds, doc)
    for name in required:
        if name not in values:
            raise KeyError(name)
    return cls(**{**values, **{name: v for name, v in flags.items() if v is not None}})


def _extrinsics(doc: dict) -> Extrinsics:
    """Extrinsics from a parsed ``rotation_row_major`` (else ``axis_angle``)
    and ``translation_m``.  The rotation must be orthonormal within 1e-6,
    det +1; one 1e-9 or more off (rounded) is snapped to the nearest
    rotation, and one ``Extrinsics.to_doc`` wrote is kept bit for bit."""

    def numbers(name: str, count: int) -> np.ndarray:
        column = _json_column(float, _json_value(list, doc[name], name), name)
        if len(column) != count:
            raise ValueError(f"{name} must hold {count} entries, got {len(column)}")
        return column

    if "rotation_row_major" in doc:
        rotation = numbers("rotation_row_major", 9).reshape(3, 3)
    else:
        rotation = rotvec_to_matrix(numbers("axis_angle", 3))
    if _check_rotation(rotation, tol=1e-6) >= 1e-9:
        rotation = nearest_rotation(rotation)
    return Extrinsics(rotation, numbers("translation_m", 3))


def _float_rows(items: list, keys: tuple, name: str) -> np.ndarray:
    """``(N, len(keys))`` float64 rows of each item's JSON numbers at ``keys``;
    a missing key names the first row of the array ``name`` without it."""
    rows = np.empty((len(items), len(keys)))
    try:
        for i, key in enumerate(keys):
            rows[:, i] = _json_column(float, list(map(operator.itemgetter(key), items)), key)
    except KeyError as exc:
        row = next(row for row, item in enumerate(items) if exc.args[0] not in item)
        raise ValueError(f"{name}[{row}]: {_field_error(exc)}") from exc
    return rows


def _timestamp(doc: dict) -> float:
    """A document's ``timestamp_s``; a NaN one would pass every sync check."""
    timestamp = _json_value(float, doc["timestamp_s"], "timestamp_s")
    if not math.isfinite(timestamp):
        raise ValueError(f"timestamp_s must be finite, got {timestamp}")
    return timestamp


def _read_lines(path: str | Path, what: str) -> list[str]:
    """A text file's lines, split at newlines as ``open`` splits them; bytes
    that are not UTF-8 are a SchemaError naming the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError:
        for line_no, line in enumerate(data.splitlines(), 1):
            try:
                line.decode()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"bad {what} {path}:{line_no}: {exc}") from exc
        raise
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


# orjson recurses without a depth limit (3.8.3 overflowed a 2 MB C stack at
# 65,536 nested arrays); a text's count of "[" and "{" bounds its depth
_ORJSON_BRACKETS = 20_000


def _fast_loads(text: str):
    """``json.loads(text)``, by orjson when ``text`` holds at most
    ``_ORJSON_BRACKETS`` "[" and "{"; see the module docstring for where its
    values and faults differ from json's."""
    if text.count("[") + text.count("{") > _ORJSON_BRACKETS:
        return json.loads(text)
    import orjson  # here: a command that only writes files never loads it

    return orjson.loads(text)


def _document(what: str, source: str | Path, read, line: str | None = None):
    """``read`` of the JSON object of the file ``source``, or of its one
    ``line``.  orjson parses first; if that parse, the object check or
    ``read`` fails, json parses again and ``read`` reads its document.  A
    syntax error (or bytes that are not UTF-8), nesting past json's
    recursion limit, a document that is not an object and each bad field
    ``read`` meets are then one SchemaError, ``bad <what> <source>:
    <message>``."""
    try:
        text = Path(source).read_bytes().decode() if line is None else line
        return read(_json_value(dict, _fast_loads(text), "the document"))
    except _BAD_FIELD:
        pass  # json words the fault, or reads what orjson refuses
    try:
        doc = json.loads(Path(source).read_text() if line is None else line)
        return read(_json_value(dict, doc, "the document"))
    except _BAD_FIELD as exc:
        raise SchemaError(f"bad {what} {source}: {_field_error(exc)}") from exc


# ---------------------------------------------------------------------------
# run-length encoding (row-major, absolute starts)


def _run_list(starts: np.ndarray, ends: np.ndarray) -> list[int]:
    return np.column_stack((starts, ends - starts)).ravel().tolist()


def _rle_runs(runs: list, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated (starts, ends) of a [start, length, ...] list, not decoded.

    A JSON array of integers in whole pairs, then each run in turn:
    length >= 1, sorted and disjoint, inside height * width; the first
    failure raises.
    """
    if type(runs) is not list:
        raise TypeError(f"RLE must be a JSON array, got {type(runs).__name__}")
    if set(map(type, runs)) - {int}:  # a bool, a float or a string too
        bad = next(value for value in runs if type(value) is not int)
        raise TypeError(f"RLE entries must be JSON integers, got {bad!r}")
    if len(runs) % 2 != 0:
        raise SchemaError("RLE list must hold (start, length) pairs")
    # clipped into int64; no check's outcome moves, as valid runs end by H * W
    flat = np.clip(np.array(runs, dtype=object), -(2**61), 2**61).astype(np.int64)
    starts, lengths = flat[0::2], flat[1::2]
    ends = starts + lengths
    short = lengths < 1
    unsorted = starts < np.concatenate(([0], ends[:-1]))
    bad = short | unsorted | (ends > height * width)
    if bad.any():
        i = int(bad.argmax())
        if short[i]:
            raise SchemaError(f"RLE run length must be >= 1, got {runs[2 * i + 1]}")
        if unsorted[i]:
            raise SchemaError("RLE runs must be sorted and non-overlapping")
        raise SchemaError("RLE run exceeds the mask size")
    return starts, ends


# ---------------------------------------------------------------------------
# radar frames


_CARTESIAN_KEYS = ("x_m", "y_m", "z_m", "v_mps", "rcs_dbsm")


def _points_json(timestamp_s: float, keys: tuple, rows: np.ndarray) -> str:
    """``canonical_json`` of ``{"timestamp_s": timestamp_s, "points":
    [dict(zip(keys, row)) for row in rows]}``, formatted directly: every
    point is one template filled with its values at 17 digits."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rows = np.asarray(rows, dtype=float)[:, order]
    bad = ~np.isfinite(rows)
    if bad.any():  # the first one in writing order, as canonical_json raises
        _format_float(float(rows.flat[bad.argmax()]))
    row = "{" + ",".join(f'"{keys[i]}":%.17g' for i in order) + "}"
    points = ",".join([row] * len(rows)) % tuple(rows.ravel().tolist())
    return f'{{"points":[{points}],"timestamp_s":{canonical_json(timestamp_s)}}}'


def write_radar_frame(path: str | Path, frame: RadarFrame) -> None:
    """Spherical-variant frame of a calibration radar scan."""
    ret = frame.returns
    rows = np.column_stack([ret[key] for key in RETURN_DTYPE.names])
    write_text(path, _points_json(frame.timestamp_s, RETURN_DTYPE.names, rows) + "\n")


def write_radar_points(path: str | Path, timestamp_s: float, points: PointCloud) -> None:
    """Cartesian-variant frame straight from a labeling point cloud."""
    rows = np.column_stack((points.xyz, points.velocity, points.rcs))
    write_text(path, _points_json(timestamp_s, _CARTESIAN_KEYS, rows) + "\n")


def _frame_rows(doc: dict) -> tuple[float, bool, np.ndarray]:
    """A frame document's timestamp, whether it is cartesian, and its points
    as ``(N, 5)`` float rows in the order of that variant's keys."""
    pts = _json_column(dict, doc["points"], "points")
    timestamp = _timestamp(doc)
    # a frame is cartesian when any point holds x_m and mixed when points hold
    # both keys: the first point holding either decides, and one scan looks
    # for the other
    first = next((p for p in pts if "x_m" in p or "r_m" in p), {})
    cartesian = "x_m" in first
    other = "r_m" if cartesian else "x_m"
    if any(other in p for p in pts):
        raise SchemaError("frame mixes spherical and cartesian points")
    rows = _float_rows(pts, _CARTESIAN_KEYS if cartesian else RETURN_DTYPE.names, "points")
    return timestamp, cartesian, rows


def load_radar_frames(path: str | Path) -> list[RadarFrame]:
    """Read a frame file or a JSON-lines stream of frames (.jsonl)."""
    path = Path(path)
    if path.suffix.lower() != ".jsonl":
        return [load_radar_frame(path)]
    return [
        _document("frame stream", f"{path}:{line_no}", _frame_from_doc, line)
        for line_no, raw in enumerate(_read_lines(path, "frame stream"), 1)
        if (line := raw.strip())
    ]


def load_radar_frame(path: str | Path) -> RadarFrame:
    """Read either coordinate variant into a spherical frame."""
    return _document("radar frame", path, _frame_from_doc)


def _frame_from_doc(doc: dict) -> RadarFrame:
    timestamp, cartesian, rows = _frame_rows(doc)
    if cartesian and len(rows):
        # scalar math, one point at a time: see cart2sph
        rows[:, :3] = [cart2sph(p) for p in rows[:, :3].tolist()]
    return RadarFrame(timestamp, rows)


def load_radar_points(path: str | Path) -> tuple[float, PointCloud]:
    """Read either coordinate variant into a Cartesian labeling point cloud."""
    from .autolabel import PointCloud

    def read(doc: dict) -> tuple[float, PointCloud]:
        timestamp, cartesian, rows = _frame_rows(doc)
        if cartesian:
            return timestamp, PointCloud(rows[:, :3], rows[:, 3], rows[:, 4])
        ret = RadarFrame(timestamp, rows).returns
        xyz = sph2cart(ret["r_m"], ret["az_rad"], ret["el_rad"])
        return timestamp, PointCloud(xyz, ret["v_mps"], ret["rcs_dbsm"])

    return _document("radar frame", path, read)


# ---------------------------------------------------------------------------
# checkerboard corners


def write_corners(
    path: str | Path, pose_id: int, timestamp_s: float, corner_set: CornerSet
) -> None:
    write_json(
        path,
        {
            "pose_id": pose_id,
            "timestamp_s": timestamp_s,
            "checkerboard": {"nx": corner_set.spec.nx, "ny": corner_set.spec.ny},
            "corners": [
                {"u_px": float(u), "v_px": float(v)} for u, v in corner_set.corners
            ],
        },
    )


def load_corners(path: str | Path) -> tuple[int, float, CornerSet]:
    def read(doc: dict) -> tuple[int, float, CornerSet]:
        board = _json_value(dict, doc["checkerboard"], "checkerboard")
        spec = CheckerboardSpec(*(_json_value(int, board[name], name) for name in ("nx", "ny")))
        rows = _json_column(dict, doc["corners"], "corners")
        corners = _float_rows(rows, ("u_px", "v_px"), "corners")
        pose_id = _json_value(int, doc["pose_id"], "pose_id")
        timestamp = _timestamp(doc)
        corner_set = CornerSet(corners, spec)
        corner_set.check_count()
        return pose_id, timestamp, corner_set

    return _document("corners file", path, read)


# ---------------------------------------------------------------------------
# instance masks


def write_masks(path: str | Path, width: int, height: int, masks: list[InstanceMask]) -> None:
    instances = []
    for m in masks:
        if (m.height, m.width) != (height, width):
            raise ValueError(
                f"mask {m.instance_id} shape {(m.height, m.width)} != ({height}, {width})"
            )
        instances.append(
            {
                "instance_id": m.instance_id,
                "class_id": m.class_id,
                "confidence": m.confidence,
                "rle": _run_list(m.starts, m.ends),
            }
        )
    write_json(path, {"width": width, "height": height, "instances": instances})


_MASK_FIELDS = operator.itemgetter("rle", "class_id", "instance_id", "confidence")


def load_masks(path: str | Path) -> tuple[int, int, list[InstanceMask]]:
    from .autolabel import InstanceMask

    def read(doc: dict) -> tuple[int, int, list[InstanceMask]]:
        width, height = (_json_value(int, doc[name], name) for name in ("width", "height"))
        if min(width, height) < 0:
            raise ValueError(f"negative mask size {width}x{height}")
        masks = []
        for i, inst in enumerate(_json_column(dict, doc["instances"], "instances")):
            try:
                runs, class_id, instance_id, confidence = _MASK_FIELDS(inst)
            except KeyError as exc:
                raise ValueError(f"instances[{i}]: {_field_error(exc)}") from exc
            masks.append(
                InstanceMask(
                    *_rle_runs(runs, height, width),
                    height=height,
                    width=width,
                    class_id=_json_value(int, class_id, "class_id"),
                    instance_id=_json_value(int, instance_id, "instance_id"),
                    confidence=_json_value(float, confidence, "confidence"),
                )
            )
        return width, height, masks

    return _document("mask file", path, read)


# ---------------------------------------------------------------------------
# calibration result


def write_calibration(
    path: str | Path,
    extrinsics: Extrinsics,
    intrinsics: CameraIntrinsics,
    mre_px: float,
    rmse_px: float,
    converged: bool,
    per_pose: list[dict] | None = None,
    config: dict | None = None,
) -> None:
    write_json(
        path,
        {
            **extrinsics.to_doc(),
            "intrinsics": dataclasses.asdict(intrinsics),
            "mre_px": mre_px,
            "rmse_px": rmse_px,
            "converged": converged,
            "per_pose": per_pose or [],
            "config": config or {},
        },
    )


def load_calibration(path: str | Path) -> tuple[Extrinsics, CameraIntrinsics, dict]:
    """Read a calibration file: its extrinsics (rotation orthonormal within
    1e-6, see ``_extrinsics``), its intrinsics and the document."""
    def read(doc: dict) -> tuple[Extrinsics, CameraIntrinsics, dict]:
        extrinsics = _extrinsics(doc)
        return extrinsics, _json_value(CameraIntrinsics, doc["intrinsics"], "intrinsics"), doc

    extrinsics, intrinsics, doc = _document("calibration file", path, read)
    if _whole_float_past_int64(doc):  # orjson's reading of a wider integer
        doc = json.loads(Path(path).read_text())
    return extrinsics, intrinsics, doc


def _whole_float_past_int64(doc) -> bool:
    """Whether a parsed document holds a whole float of magnitude 2**63 or
    more anywhere: how orjson reads an integer literal past 64 bits, which
    json reads as an int.  A field check refuses such a float, but the
    calibration document is returned whole, so it is parsed again by json."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if type(value) is dict:
            stack.extend(value.values())
        elif type(value) is list:
            stack.extend(value)
        elif type(value) is float and abs(value) >= 2**63 and value.is_integer():
            return True
    return False


# ---------------------------------------------------------------------------
# point labels (JSON-lines)


def write_labels(path: str | Path, labels: LabelColumns) -> None:
    """One canonical JSON line per point, in point order, formatted directly:
    points that share a label and provenance share every byte but the index."""
    from .autolabel import _PROVENANCE

    provenance_json = [canonical_json(p.value) for p in _PROVENANCE]  # by code
    parts: dict = {}
    lines = []
    columns = (labels.labeled, labels.class_id, labels.instance_id, labels.provenance)
    for i, key in enumerate(zip(*(c.tolist() for c in columns))):
        if key not in parts:
            labeled, class_id, instance_id, code = key
            parts[key] = (
                f'{{"class_id":{canonical_json(class_id if labeled else None)},'
                f'"instance_id":{canonical_json(instance_id if labeled else None)},"point_index":',
                f',"provenance":{provenance_json[code]}}}',
            )
        head, tail = parts[key]
        lines.append(f"{head}{i}{tail}")
    write_text(path, "\n".join(lines) + ("\n" if lines else ""))


_LABEL_FIELDS = operator.itemgetter("point_index", "class_id", "instance_id", "provenance")


def _label_columns(docs: list) -> tuple[np.ndarray, LabelColumns]:
    """Point indices and label columns of parsed label lines, in line order."""
    from .autolabel import _PROVENANCE, LabelColumns

    index, class_id, instance_id, provenance = list(zip(*map(_LABEL_FIELDS, docs))) or [()] * 4
    point_index = _json_column(int, index, "point_index")
    class_id, class_null = _json_column(int, class_id, "class_id", nullable=True)
    instance_id, instance_null = _json_column(int, instance_id, "instance_id", nullable=True)
    unlabeled = class_null | instance_null
    class_id[unlabeled] = 0
    instance_id[unlabeled] = 0
    _json_column(str, provenance, "provenance")
    code_of = {p.value: i for i, p in enumerate(_PROVENANCE)}
    unknown = set(provenance) - code_of.keys()
    if unknown:
        raise ValueError(f"unknown provenance {min(unknown)!r}")
    codes = np.fromiter(map(code_of.get, provenance), dtype=np.int8, count=len(docs))
    return point_index, LabelColumns(class_id, instance_id, ~unlabeled, codes)


def _parse_labels(path: str | Path, raw_lines: list[str]) -> tuple[np.ndarray, LabelColumns]:
    """Point indices and label columns of a labels file's non-blank lines.

    One ``_fast_loads`` parses all lines joined into an array when that is
    sure to give each line's own value: no line holds a bracket and every
    line after the first starts with "{".  A separator inside a nested
    container would then sit inside an object, where a "{" cannot follow a
    comma, so the parse fails instead; and one value per line means one
    element per line.  Otherwise, and to name the first bad line, the lines
    are parsed one by one, each as a ``_document``.
    """
    lines = [s for line in raw_lines if (s := line.strip())]
    body = ",\n".join(lines)
    if "[" not in body and "]" not in body and body.count("\n{") == len(lines) - 1:
        try:
            docs = _fast_loads(f"[{body}]")
            if len(docs) == len(lines):
                return _label_columns(docs)
        except _BAD_FIELD:
            pass
    docs = [
        _document("labels file", f"{path}:{line_no}", _label_line, line)
        for line_no, raw in enumerate(raw_lines, 1)
        if (line := raw.strip())
    ]
    return _label_columns(docs)


def _label_line(doc: dict) -> dict:
    """A labels line's document, once its fields read as a label."""
    _label_columns([doc])
    return doc


def load_labels(path: str | Path) -> LabelColumns:
    """Read a labels file into columns in point-index order.

    Each non-blank line holds one JSON object with an integer
    ``point_index``, integer-or-null ``class_id`` and ``instance_id`` (a
    point with either null is unlabeled) and a known ``provenance``; the
    indices cover 0..N-1 exactly once.
    """
    from .autolabel import LabelColumns

    point_index, columns = _parse_labels(path, _read_lines(path, "labels file"))
    order = np.argsort(point_index, kind="stable")
    if not np.array_equal(point_index[order], np.arange(len(order))):
        raise SchemaError(f"bad labels file {path}: point indices must cover 0..N-1 exactly once")
    return LabelColumns(
        columns.class_id[order],
        columns.instance_id[order],
        columns.labeled[order],
        columns.provenance[order],
    )


# ---------------------------------------------------------------------------
# intrinsics


def write_intrinsics(path: str | Path, k: CameraIntrinsics) -> None:
    write_json(path, dataclasses.asdict(k))


def load_intrinsics(path: str | Path) -> CameraIntrinsics:
    return _document("intrinsics file", path, functools.partial(_config, CameraIntrinsics))
