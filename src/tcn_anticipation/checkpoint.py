"""Binary checkpoint format with bit-exact round trips.

Layout (all integers little-endian):

    magic "TCNA" | u16 version | u32 entry count
    per entry: u16 name length | UTF-8 name | u8 dtype code (0=f32, 1=f64)
               | u8 ndim | ndim x u32 dims | raw little-endian payload
    trailing u32 CRC32 of everything after the magic

Training metadata rides as ordinary entries under the reserved ``meta.``
prefix, every value stored as an exact f64: ``meta.kind``, ``meta.epoch``, a
branch's ``meta.modality``, and every field of the model's config dataclass
under ``meta.config.`` (a fusion model's branch configs under
``meta.config.branches.{modality}.``). A name is stored as its position in the
tuple of names the package defines: ``("branch", "fusion")``, ``MODALITIES``,
``STRATEGIES``, and ``("f32", "f64")`` for the ``dtype`` field, whose entry is
``dtype_f64``. A stored position that is not an integer in range is bad
metadata. Loaders ignore metadata entries they do not read, and the order of
the entries does not matter. One reader builds either model.

Every reader error is a CheckpointError: bad bytes, an entry name stored
twice, bad metadata, a slot of the model's layout with no stored tensor or
with a stored shape other than the layout's (both checked before any model is
built), and a stored tensor that has no slot in the model built. A CRC
mismatch is reported as such even when the corrupt bytes also break the
parse.

``load_checkpoint`` reads each payload straight into its own array, checking
every length against the bytes left in the file before allocating and running
the CRC over the bytes as they arrive, so a load peaks near one file size and
returns nothing before the CRC is checked. The model adopts those arrays.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import fields
from hashlib import sha256
from typing import Mapping

import numpy as np

from .branch import Branch, BranchConfig
from .data import MODALITIES
from .fusion import STRATEGIES, FusionConfig, FusionModel
from .layers import layout_shapes
from .tensor import Tensor

MAGIC = b"TCNA"
VERSION = 1
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(ValueError):
    """Malformed, truncated, or incompatible checkpoint."""


def save_checkpoint(path, tensors: Mapping[str, Tensor]) -> None:
    """Write each header and payload straight to the file, with the CRC running alongside."""
    entries = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODE:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]}...")
        header = (struct.pack("<H", len(encoded)) + encoded
                  + struct.pack(f"<BB{arr.ndim}I", _DTYPE_CODE[arr.dtype], arr.ndim, *arr.shape))
        entries.append((header, arr.astype(arr.dtype.newbyteorder("<"), copy=False)))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        crc = 0
        for chunk in (struct.pack("<HI", VERSION, len(entries)),
                      *(part for entry in entries for part in entry)):
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(struct.pack("<I", crc))


class _Reader:
    """Reads the body of an open checkpoint file: every read is checked against the
    bytes left before the trailing CRC, and the CRC runs over each chunk read."""

    def __init__(self, fh, body_size: int, path):
        self.fh = fh
        self.path = path
        self.left = body_size
        self.crc = 0

    def _check(self, n: int, what: str) -> None:
        if n > self.left:
            raise CheckpointError(f"{self.path}: truncated while reading {what} at offset "
                                  f"{self.fh.tell() - len(MAGIC)}")

    def _count(self, chunk, got: int, n: int, what: str) -> None:
        if got != n:
            raise CheckpointError(f"{self.path}: file shrank while reading {what}")
        self.left -= n
        self.crc = zlib.crc32(chunk, self.crc)

    def take(self, n: int, what: str) -> bytes:
        self._check(n, what)
        chunk = self.fh.read(n)
        self._count(chunk, len(chunk), n, what)
        return chunk

    def take_array(self, dims: tuple[int, ...], dtype: np.dtype, what: str) -> Tensor:
        """A new array holding the next payload, read straight into it."""
        self._check(math.prod(dims) * dtype.itemsize, what)
        try:  # zero-size tensors whose other dims overflow numpy's shape limit
            arr = np.empty(dims, dtype=dtype)
        except ValueError:
            raise CheckpointError(f"{self.path}: {what} has unusable dims {dims}") from None
        self._count(arr, self.fh.readinto(arr), arr.nbytes, what)
        return arr

    def crc_matches(self) -> bool:
        """Run the CRC over the rest of the body, then compare it with the stored one."""
        while self.left:
            chunk = self.fh.read(min(self.left, 1 << 20))
            if not chunk:
                return False
            self.left -= len(chunk)
            self.crc = zlib.crc32(chunk, self.crc)
        return self.fh.read(4) == struct.pack("<I", self.crc)


def load_checkpoint(path) -> dict[str, Tensor]:
    """Every stored tensor by name, each in its own array, once the CRC matches."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if size < len(MAGIC) + 4:
            raise CheckpointError(f"{path}: truncated before checksum")
        r = _Reader(fh, size - len(MAGIC) - 4, path)
        corrupt = CheckpointError(f"{path}: CRC32 mismatch, file is corrupt")
        try:
            tensors = _read_entries(r, path)
        except CheckpointError:
            if r.crc_matches():
                raise
            raise corrupt from None
        if not r.crc_matches():
            raise corrupt
    return tensors


def _read_entries(r: _Reader, path) -> dict[str, Tensor]:
    version, = struct.unpack("<H", r.take(2, "version"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}, expected {VERSION}")
    count, = struct.unpack("<I", r.take(4, "entry count"))
    tensors: dict[str, Tensor] = {}
    for i in range(count):
        name_len, = struct.unpack("<H", r.take(2, f"entry {i} name length"))
        try:
            name = str(r.take(name_len, f"entry {i} name"), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry {i} name is not UTF-8") from None
        if name in tensors:
            raise CheckpointError(f"{path}: entry {name!r} is stored twice")
        code, ndim = struct.unpack("<BB", r.take(2, f"{name} header"))
        if code not in _CODE_DTYPE:
            raise CheckpointError(f"{path}: entry {name!r} has unknown dtype code {code}")
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim, f"{name} dims"))
        tensors[name] = r.take_array(dims, _CODE_DTYPE[code], f"entry {name!r}")
    if r.left:
        raise CheckpointError(f"{path}: {r.left} trailing bytes after last entry")
    return tensors


def parameter_hash(state: Mapping[str, Tensor]) -> str:
    """Order-independent digest of named tensors; detects any bit flip."""
    h = sha256()
    for name in sorted(state):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(state[name]).tobytes())
    return h.hexdigest()


# -- metadata encoding --------------------------------------------------------

_KINDS = ("branch", "fusion")
# config fields holding a name: the entry it is stored under, and the names it takes
_NAMED_FIELDS = {"dtype": ("dtype_f64", ("f32", "f64")), "strategy": ("strategy", STRATEGIES)}
# scalar config fields by annotation, which the config modules leave as strings
_SCALAR_FIELDS = {"int": int, "float": float}


def _scalar(v: float) -> np.ndarray:
    return np.array([float(v)], dtype=np.float64)


def _meta_value(tensors: Mapping[str, Tensor], key: str) -> float:
    return float(tensors[key][0])


def _meta_name(tensors: Mapping[str, Tensor], key: str, names: tuple[str, ...]) -> str:
    """The name a stored position stands for; anything but an integer in range is an error."""
    code = _meta_value(tensors, key)
    if not (code.is_integer() and 0 <= code < len(names)):
        raise CheckpointError(f"entry {key!r} holds {code}, not a position in {names}")
    return names[int(code)]


def _config_meta(cfg, prefix: str) -> dict[str, np.ndarray]:
    """Every field of a config dataclass as an exact f64 entry, a name by its position."""
    meta = {}
    for f in fields(cfg):
        key, names = _NAMED_FIELDS.get(f.name, (f.name, None))
        value = getattr(cfg, f.name)
        meta[prefix + key] = np.array(value if names is None else names.index(value),
                                      dtype=np.float64).reshape(-1)
    return meta


def _config_from_meta(cls, tensors: Mapping[str, Tensor], prefix: str):
    """The config dataclass ``cls`` that ``_config_meta`` wrote under ``prefix``."""
    kwargs = {}
    for f in fields(cls):
        key, names = _NAMED_FIELDS.get(f.name, (f.name, None))
        if names is not None:
            kwargs[f.name] = _meta_name(tensors, prefix + key, names)
        elif f.type in _SCALAR_FIELDS:
            kwargs[f.name] = _SCALAR_FIELDS[f.type](_meta_value(tensors, prefix + key))
        else:  # a tuple of ints
            kwargs[f.name] = tuple(int(v) for v in np.asarray(tensors[prefix + key]))
    return cls(**kwargs)


@contextmanager
def _reading_metadata(path):
    """A missing, malformed or invalid ``meta.`` entry, or a model that the
    metadata and the stored tensors cannot build, becomes a CheckpointError."""
    try:
        yield
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad metadata ({type(exc).__name__}: {exc})") from None


def _check_shapes(tensors: Mapping[str, Tensor], shapes: dict[str, tuple]) -> None:
    """Run before a build: every slot the metadata lays out is stored with its shape."""
    for name, shape in shapes.items():
        if name not in tensors:
            raise CheckpointError(f"missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {tensors[name].shape}, "
                                  f"metadata expects {shape}")


def branch_checkpoint_tensors(branch: Branch, modality: str, epoch: int) -> dict[str, Tensor]:
    return {**branch.named_state(), "meta.kind": _scalar(_KINDS.index("branch")),
            "meta.epoch": _scalar(epoch), "meta.modality": _scalar(MODALITIES.index(modality)),
            **_config_meta(branch.config, "meta.config.")}


def fusion_checkpoint_tensors(model: FusionModel, epoch: int) -> dict[str, Tensor]:
    tensors = {**model.named_state(), "meta.kind": _scalar(_KINDS.index("fusion")),
               "meta.epoch": _scalar(epoch), **_config_meta(model.config, "meta.config.")}
    for mod in MODALITIES:
        tensors.update(_config_meta(model.branches[mod].config, f"meta.config.branches.{mod}."))
    return tensors


def _model_from_tensors(tensors: Mapping[str, Tensor], path, kind: str | None = None):
    """(kind, model, info) from a checkpoint's tensors; with ``kind``, only that kind is
    accepted. Branch info holds the epoch and modality, fusion info the epoch."""
    with _reading_metadata(path):
        stored = _meta_name(tensors, "meta.kind", _KINDS)
        if kind not in (None, stored):
            raise CheckpointError(f"not a {kind} checkpoint")
        info = {"epoch": int(_meta_value(tensors, "meta.epoch"))}
        if stored == "branch":
            info["modality"] = _meta_name(tensors, "meta.modality", MODALITIES)
            cfg = _config_from_meta(BranchConfig, tensors, "meta.config.")
            _check_shapes(tensors, layout_shapes(cfg.layout()))
            model = Branch(cfg, rng=None)
        else:
            cfg = _config_from_meta(FusionConfig, tensors, "meta.config.")
            bcfgs = {mod: _config_from_meta(BranchConfig, tensors, f"meta.config.branches.{mod}.")
                     for mod in MODALITIES}
            shapes = layout_shapes(cfg.layout())
            for mod in MODALITIES:
                shapes.update((f"branches.{mod}.{name}", shape)
                              for name, shape in layout_shapes(bcfgs[mod].layout()).items())
            _check_shapes(tensors, shapes)
            model = FusionModel({mod: Branch(bcfgs[mod], rng=None) for mod in MODALITIES}, cfg,
                                rng=None)
        model.load_state({k: v for k, v in tensors.items() if not k.startswith("meta.")})
    return stored, model, info


def branch_from_checkpoint(path) -> tuple[Branch, str, dict]:
    _, branch, info = _model_from_tensors(load_checkpoint(path), path, "branch")
    return branch, info["modality"], info


def fusion_from_checkpoint(path) -> tuple[FusionModel, dict]:
    return _model_from_tensors(load_checkpoint(path), path, "fusion")[1:]


def load_any_checkpoint(path):
    """Return ("branch", Branch, info) or ("fusion", FusionModel, info) from one read."""
    return _model_from_tensors(load_checkpoint(path), path)
