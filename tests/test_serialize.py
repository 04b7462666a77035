import json
import struct

import numpy as np
import pytest

from nzs.games import JointPoint
from nzs.instances import gen_sparse_experiment
from nzs.serialize import (FormatError, read_instance, read_point,
                           write_instance, write_point)


def make_instance(seed=0):
    _, data = gen_sparse_experiment(40, 30, 200, seed=seed, mu=1e-4, nu=1.0)
    M = data.pop("M")
    return M, data


class TestInstanceFile:
    def test_roundtrip(self, tmp_path):
        M, meta = make_instance()
        path = tmp_path / "inst.nzs"
        write_instance(path, M, meta)
        M2, meta2 = read_instance(path)
        assert M2.shape == M.shape
        assert np.array_equal(M2.row_offsets, M.row_offsets)
        assert np.array_equal(M2.col_indices, M.col_indices)
        assert np.array_equal(M2.values, M.values)
        for key, val in meta.items():
            assert meta2[key] == val

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.nzs", tmp_path / "b.nzs"
        for path in (p1, p2):
            M, meta = make_instance(seed=3)
            write_instance(path, M, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        p1, p2 = tmp_path / "a.nzs", tmp_path / "b.nzs"
        M, meta = make_instance(seed=3)
        write_instance(p1, M, meta)
        M, meta = make_instance(seed=4)
        write_instance(p2, M, meta)
        assert p1.read_bytes() != p2.read_bytes()

    MISSING = object()

    @pytest.mark.parametrize("key,value", [
        ("norm_abs", MISSING), ("mu", MISSING), ("shape", MISSING),
        ("arrays", MISSING), ("norm_abs", "1.0"), ("nu", True),
        ("shape", [30]), ("shape", [30, 0]), ("arrays", []),
        ("arrays", [{"name": "values", "dtype": "float64", "length": 1}])])
    def test_bad_header_rejected(self, tmp_path, key, value):
        M, meta = make_instance()
        path = tmp_path / "inst.nzs"
        write_instance(path, M, meta)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        if value is self.MISSING:
            del header[key]
        else:
            header[key] = value
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                         + raw[16 + hlen:])
        with pytest.raises(FormatError, match=key):
            read_instance(path)

    # a 2 x 3 CSR matrix as write_instance lays it out
    WELL_TYPED = {"row_offsets": ("int64", [0, 2, 3]),
                  "col_indices": ("int64", [0, 2, 1]),
                  "values": ("float64", [1.0, -1.0, 0.5])}

    @staticmethod
    def write_raw(path, arrays):
        header = {"shape": [2, 3], "mu": 1e-4, "nu": 1.0, "norm_abs": 1.0,
                  "arrays": [{"name": n, "dtype": d, "length": len(v)}
                             for n, (d, v) in arrays.items()]}
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(b"NZSINST1" + struct.pack("<Q", len(blob)) + blob
                         + b"".join(np.asarray(v, dtype=np.dtype(d)
                                               .newbyteorder("<")).tobytes()
                                    for d, v in arrays.values()))

    @pytest.mark.parametrize("name,dtype,values", [
        ("col_indices", "float64", [0.0, 2.7, 1.2]),
        ("row_offsets", "float64", [0, 2.9, 3]),
        ("values", "int64", [1, -1, 0])])
    def test_array_dtype_other_than_written_rejected(self, tmp_path, name,
                                                     dtype, values):
        # truncating float indices would load another, valid matrix
        path = tmp_path / "inst.nzs"
        self.write_raw(path, self.WELL_TYPED)
        M, _ = read_instance(path)
        assert M.to_dense().tolist() == [[1.0, 0.0, -1.0], [0.0, 0.5, 0.0]]
        self.write_raw(path, {**self.WELL_TYPED, name: (dtype, values)})
        with pytest.raises(FormatError, match="arrays"):
            read_instance(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.nzs"
        path.write_bytes(b"NZSINST1\x05")
        with pytest.raises(FormatError):
            read_instance(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.nzs"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError):
            read_instance(path)


class TestPointFile:
    def test_roundtrip(self, tmp_path):
        z = JointPoint(np.array([0.25, 0.75]), np.array([0.1, 0.2, 0.7]))
        path = tmp_path / "pt.json"
        write_point(path, z)
        z2 = read_point(path)
        assert np.array_equal(z.x, z2.x)
        assert np.array_equal(z.y, z2.y)

    def test_text_is_json_of_the_floats(self, tmp_path):
        # signed zeros, subnormals and 17-digit reprs keep their text
        z = JointPoint(np.array([-0.0, 5e-324, 0.1 + 0.2, 1e300]),
                       np.array([1 / 3, -2.5e-17]))
        path = tmp_path / "pt.json"
        write_point(path, z)
        assert path.read_text() == json.dumps(
            {"x": list(map(float, z.x)), "y": list(map(float, z.y))})
        z2 = read_point(path)
        assert z.concat().tobytes() == z2.concat().tobytes()

    @pytest.mark.parametrize("content", [
        '{"y": [0.5, 0.5]}', '{"x": [0.5, 0.5]}', '[1, 2]', '"x"', 'null',
        '{"x": {"a": 1}, "y": [1.0]}', '{"x": [[1.0]], "y": [1.0]}',
        '{"x": ["a"], "y": [1.0]}', '{"x": [true], "y": [1.0]}'])
    def test_malformed_point_rejected(self, tmp_path, content):
        path = tmp_path / "pt.json"
        path.write_text(content)
        with pytest.raises(FormatError, match="point file"):
            read_point(path)
