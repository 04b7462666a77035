"""Flat-file formats.

Instance files are self-describing: an 8-byte magic/version tag, an
8-byte little-endian length, a JSON metadata block, then the raw CSR
arrays in little-endian order. One file stores the pre-fee payoff matrix
so a single instance serves a whole fee sweep. Points and reports are
plain JSON.
"""

import json
import os
import struct
import sys

import numpy as np

from .games import JointPoint
from .vecmat import SparseMatrix

MAGIC = b"NZSINST1"

_DTYPES = {"int64": "<i8", "float64": "<f8"}
# the CSR arrays in file order, each with the one dtype it may have
_ARRAYS = (("row_offsets", "int64"), ("col_indices", "int64"),
           ("values", "float64"))


class FormatError(ValueError):
    pass


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):  # a finite number that converts to float64
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _check_header(header):
    """Raise FormatError unless the header has the keys read_instance and
    the solvers use, with the right types."""
    if not isinstance(header, dict):
        raise FormatError("instance header is not a JSON object")
    shape = header.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(_is_int(d) and d > 0 for d in shape)):
        raise FormatError("instance header: 'shape' must be two positive "
                          "integers")
    arrays = header.get("arrays")
    if not (isinstance(arrays, list) and all(
            isinstance(a, dict) and (a.get("name"), a.get("dtype")) in _ARRAYS
            and _is_int(a.get("length")) and a["length"] >= 0
            for a in arrays)
            and sorted(a["name"] for a in arrays)
            == sorted(name for name, _ in _ARRAYS)):
        raise FormatError("instance header: 'arrays' must describe "
                          + ", ".join(f"{n} ({d})" for n, d in _ARRAYS)
                          + " by name, dtype and length")
    optional = {"norm": 1.0, "seed": -1}  # run_method's stand-ins
    for key in ("mu", "nu", "norm_abs", "norm", "seed"):
        if not _is_real(header.get(key, optional.get(key))):
            raise FormatError(f"instance header: {key!r} must be a number")


def write_instance(path, M, meta):
    """Write a payoff matrix and its metadata to one binary file; a
    non-finite float in meta, which JSON cannot hold, raises ValueError
    before the file is opened."""
    arrays = [(n, d, getattr(M, n)) for n, d in _ARRAYS]
    header = {**meta, "format": 1, "shape": [M.n_rows, M.n_cols],
              "arrays": [{"name": n, "dtype": d, "length": len(a)}
                         for n, d, a in arrays]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, dtype, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes())


def read_instance(path):
    """Read an instance file; returns (SparseMatrix, metadata dict)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != MAGIC:
            raise FormatError(f"not an instance file (magic {magic!r})")
        raw = fh.read(8)
        hlen = struct.unpack("<Q", raw)[0] if len(raw) == 8 else size
        if hlen > size - 16:
            raise FormatError("instance file truncated in its header")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        _check_header(header)
        if fh.tell() + 8 * sum(a["length"] for a in header["arrays"]) != size:
            raise FormatError("instance file size does not match its header")
        data = {}
        for spec in header["arrays"]:
            raw = fh.read(spec["length"] * 8)
            data[spec["name"]] = np.frombuffer(
                raw, dtype=_DTYPES[spec["dtype"]]).copy()
    m, n = header["shape"]
    M = SparseMatrix(m, n, data["row_offsets"], data["col_indices"],
                     data["values"])
    meta = {k: v for k, v in header.items()
            if k not in ("arrays", "format", "shape")}
    return M, meta


def write_point(path, point):
    """Write a point file: {"x": [...], "y": [...]}, in one write."""
    text = json.dumps({"x": point.x.tolist(), "y": point.y.tolist()})
    with open(path, "w") as fh:
        fh.write(text)


def read_point(path):
    """Read a point file: a JSON object whose "x" and "y" are lists of
    numbers. Raises FormatError on anything else."""
    with open(path) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and all(
            isinstance(data.get(k), list)
            and all(_is_real(v) for v in data[k]) for k in ("x", "y"))):
        raise FormatError('point file must be a JSON object whose "x" and '
                          '"y" are lists of numbers')
    return JointPoint(np.asarray(data["x"], dtype=np.float64),
                      np.asarray(data["y"], dtype=np.float64))


def write_report(path, report_dict):
    with open(path, "w") as fh:
        json.dump(report_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")
