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


def load_model(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read the meta and arrays of a ``kind`` model written by save_model.

    A file that is not a complete model of that kind raises BadModelFile
    naming the path: also one whose manifest lists a name twice or gives
    a shape that is not a list of integers, one with bytes after its last
    array, and one with an array holding a NaN or an infinity (a NaN
    weight makes every score NaN and every argmax the first label).
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
    if offset > len(data):
        raise BadModelFile(f"{path}: truncated header")
    try:
        header = json.loads(data[_PREAMBLE:offset].decode("utf-8"))
        found, meta = header["kind"], dict(header["meta"])
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise BadModelFile(f"{path}: unreadable header ({exc})")
    if found != kind:
        raise BadModelFile(f"{path}: expected a {kind} model, got {found!r}")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in specs:
        if not isinstance(name, str) or name in arrays:
            raise BadModelFile(f"{path}: array {name!r} is listed twice or is not a string")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise BadModelFile(f"{path}: array {name!r} has shape {list(shape)}, "
                               "not a list of integers >= 0")
        count = math.prod(shape)
        if offset + 8 * count > len(data):
            raise BadModelFile(f"{path}: array {name!r} is truncated")
        arrays[name] = np.frombuffer(data, dtype=np.float64, count=count,
                                     offset=offset).reshape(shape).copy()
        offset += 8 * count
    if offset != len(data):
        raise BadModelFile(f"{path}: {len(data) - offset} bytes follow the last array")
    # the arrays are one float64 run, so one pass checks them all
    if not np.isfinite(np.frombuffer(data, np.float64, offset=_PREAMBLE + header_len)).all():
        name = next(name for name, array in arrays.items() if not np.isfinite(array).all())
        raise BadModelFile(f"{path}: array {name!r} holds a value that is not finite")
    return meta, arrays


def write_model(path: str | Path, kind: str, labels, vocab: str, config,
                dims: dict[str, int], arrays: dict[str, np.ndarray]) -> None:
    """Save a model under the header fields that read_model checks."""
    meta = {"labels": list(labels), "vocab": vocab, "config": dataclasses.asdict(config),
            **dims}
    save_model(path, kind, meta, arrays)


def read_model(path: str | Path, kind: str, labels, config_type, dims: tuple[str, ...],
               table) -> tuple[str, object, dict[str, np.ndarray]]:
    """The vocabulary, training config and arrays of a ``kind`` model file,
    checked before anything is built from them, so that no allocation is
    sized by a header value the stored arrays do not match. In order: the
    header ``labels`` are ``labels`` (probabilities are indexed by them);
    the ``vocab`` is a string of distinct characters; the ``config`` has
    exactly the fields of ``config_type``, which accepts their values; each
    of ``dims`` (a header key or ``config.<field>``) is an integer >= 1;
    the arrays are exactly those ``table(vocab, *dims)`` names, each of the
    shape it gives. A failed check raises BadModelFile naming the file.
    """
    meta, arrays = load_model(path, kind)
    lacking = [k for k in ("labels", "vocab", "config", *dims) if "." not in k and k not in meta]
    if lacking:
        raise BadModelFile(f"{path}: model header lacks {lacking[0]!r}")
    if meta["labels"] != list(labels):
        raise BadModelFile(f"{path}: model header 'labels' is {meta['labels']!r}, "
                           f"expected {list(labels)!r}")
    vocab = meta["vocab"]
    if not isinstance(vocab, str) or len(set(vocab)) != len(vocab):
        raise BadModelFile(f"{path}: model header 'vocab' is not a string of "
                           "distinct characters")
    given = meta["config"]
    if not isinstance(given, dict):
        raise BadModelFile(f"{path}: model config is not an object")
    names = {f.name for f in dataclasses.fields(config_type)}
    unknown, missing = sorted(given.keys() - names), sorted(names - given.keys())
    if unknown:
        raise BadModelFile(f"{path}: model config has unknown key {unknown[0]!r}")
    if missing:
        raise BadModelFile(f"{path}: model config lacks {missing[0]!r}")
    try:
        config = config_type(**given)
    except BadSetting as exc:
        raise BadModelFile(f"{path}: model config: {exc}") from None
    dimensions = {}
    for key in dims:
        section, _, name = key.rpartition(".")
        dimensions[key] = value = (meta[section] if section else meta)[name]
        if type(value) is not int or value < 1:
            raise BadModelFile(f"{path}: model header {key!r} is {value!r}, "
                               "expected an integer >= 1")
    shapes = table(vocab, *dimensions.values())
    if arrays.keys() != shapes.keys():
        raise BadModelFile(f"{path}: model arrays are {sorted(arrays)}, expected {sorted(shapes)}")
    for key, shape in shapes.items():
        if arrays[key].shape != shape:
            stated = ", ".join(f"{k}={v}" for k, v in dimensions.items())
            raise BadModelFile(f"{path}: array {key!r} has shape {arrays[key].shape}, "
                               f"expected {shape} for {stated}")
    return vocab, config, arrays
