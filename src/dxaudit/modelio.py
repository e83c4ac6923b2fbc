"""Single-file binary serialization for trained models.

Layout: 4-byte magic, uint32 format version, uint64 header length, a
UTF-8 JSON header (model kind, dims, seed, vocabulary, array manifest),
then the raw float64 buffers in manifest order. Writing the same model
twice produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from itertools import chain
from pathlib import Path

import numpy as np

from .core import json_line, write_bytes
from .errors import BadModelFile, BadSetting

MAGIC = b"DXMD"
VERSION = 2
_PREAMBLE = 16  # magic, version, header length


def save_model(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    names = sorted(arrays)
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    blob = json_line(header).encode("utf-8")
    write_bytes(path, chain([MAGIC, struct.pack("<IQ", VERSION, len(blob)), blob],
                            (np.ascontiguousarray(arrays[n], dtype=np.float64).tobytes()
                             for n in names)))


class _Fields(dict):
    """A dict whose missing key raises BadModelFile naming the file."""

    def __init__(self, path, part: str, items):
        super().__init__(items)
        self.path, self.part = path, part

    def __missing__(self, key):
        raise BadModelFile(f"{self.path}: model {self.part} lacks {key!r}")

    def text(self, key: str) -> str:
        """The string under ``key``."""
        if not isinstance(self[key], str):
            raise BadModelFile(f"{self.path}: model {self.part} {key!r} is not a string")
        return self[key]

    def expect(self, key: str, value) -> None:
        """Raise BadModelFile unless the field under ``key`` equals ``value``."""
        if self[key] != value:
            raise BadModelFile(f"{self.path}: model {self.part} {key!r} is "
                               f"{self[key]!r}, expected {value!r}")

    def expect_shapes(self, dims: dict, shapes) -> None:
        """Raise BadModelFile unless each header dimension in ``dims`` is an
        integer >= 1 and each array named in ``shapes(*dims.values())`` has
        the shape given there. Loaders check this before building anything."""
        for key, value in dims.items():
            if type(value) is not int or value < 1:
                raise BadModelFile(f"{self.path}: model header {key!r} is {value!r}, "
                                   "expected an integer >= 1")
        for key, shape in shapes(*dims.values()).items():
            if self[key].shape != shape:
                given = ", ".join(f"{k}={v}" for k, v in dims.items())
                raise BadModelFile(f"{self.path}: array {key!r} has shape "
                                   f"{self[key].shape}, expected {shape} for {given}")


def load_model(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read the meta and arrays of a ``kind`` model written by save_model.

    A file that is not a complete model of that kind raises BadModelFile
    naming the path, also when a loader asks for a meta key or an array
    that the file lacks.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != MAGIC:
        raise BadModelFile(f"{path}: not a dxaudit model file")
    if len(data) < _PREAMBLE:
        raise BadModelFile(f"{path}: truncated header")
    version, header_len = struct.unpack_from("<IQ", data, 4)
    if version != VERSION:
        raise BadModelFile(f"{path}: unsupported model version {version}")
    offset = _PREAMBLE + header_len
    try:
        header = json.loads(data[_PREAMBLE:offset].decode("utf-8"))
        found, meta = header["kind"], _Fields(path, "header", header["meta"])
        specs = [(spec["name"], tuple(int(n) for n in spec["shape"]))
                 for spec in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise BadModelFile(f"{path}: unreadable header ({exc})")
    if found != kind:
        raise BadModelFile(f"{path}: expected a {kind} model, got {found!r}")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in specs:
        count = math.prod(shape)
        if min(shape, default=0) < 0 or offset + 8 * count > len(data):
            raise BadModelFile(f"{path}: array {name!r} is truncated")
        arrays[name] = np.frombuffer(data, dtype=np.float64, count=count,
                                     offset=offset).reshape(shape).copy()
        offset += 8 * count
    return meta, _Fields(path, "arrays", arrays)


def load_config(meta: _Fields, config_type):
    """``config_type`` built from the ``config`` of a meta from load_model.

    An unknown or a missing config key, or a value the config refuses,
    raises BadModelFile naming the file.
    """
    given = meta["config"]
    if not isinstance(given, dict):
        raise BadModelFile(f"{meta.path}: model config is not an object")
    names = {f.name for f in dataclasses.fields(config_type)}
    unknown, missing = sorted(given.keys() - names), sorted(names - given.keys())
    if unknown:
        raise BadModelFile(f"{meta.path}: model config has unknown key {unknown[0]!r}")
    if missing:
        raise BadModelFile(f"{meta.path}: model config lacks {missing[0]!r}")
    try:
        return config_type(**given)
    except BadSetting as exc:
        raise BadModelFile(f"{meta.path}: model config: {exc}") from None
