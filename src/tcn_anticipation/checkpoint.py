"""Binary checkpoint format with bit-exact round trips.

Layout (all integers little-endian):

    magic "TCNA" | u16 version | u32 entry count
    per entry: u16 name length | UTF-8 name | u8 dtype code (0=f32, 1=f64)
               | u8 ndim | ndim x u32 dims | raw little-endian payload
    trailing u32 CRC32 of everything after the magic

Training metadata (model kind, epoch, modality, model config) rides as
ordinary entries under the reserved ``meta.`` prefix, every value stored as
an exact f64. Loaders ignore metadata entries they do not read.

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
from hashlib import sha256
from typing import Mapping

import numpy as np

from .branch import Branch, BranchConfig
from .fusion import MODALITIES, STRATEGIES, FusionConfig, FusionModel
from .layers import layout_shapes
from .tensor import Tensor

MAGIC = b"TCNA"
VERSION = 1
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_KIND_CODE = {"branch": 0.0, "fusion": 1.0}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_MODALITY_CODE = {"rgb": 0.0, "flow": 1.0, "obj": 2.0}
_MODALITY_NAME = {v: k for k, v in _MODALITY_CODE.items()}
_STRATEGY_CODE = {s: float(i) for i, s in enumerate(STRATEGIES)}
_STRATEGY_NAME = {v: k for k, v in _STRATEGY_CODE.items()}


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

def _scalar(v: float) -> np.ndarray:
    return np.array([float(v)], dtype=np.float64)


def _meta_value(tensors: Mapping[str, Tensor], key: str) -> float:
    return float(tensors[key][0])


@contextmanager
def _reading_metadata(path):
    """A missing, malformed or invalid ``meta.`` entry, or a model that the
    metadata and the stored tensors cannot build, becomes a CheckpointError."""
    try:
        yield
    except CheckpointError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad metadata ({type(exc).__name__}: {exc})") from None


_BRANCH_SCALARS = ("input_dim", "num_actions", "num_verbs", "num_nouns",
                   "channels", "kernel", "input_dropout", "block_dropout",
                   "head_dropout")
_FUSION_SCALARS = ("channels", "num_actions", "num_verbs", "num_nouns",
                   "embed_dim", "head_dropout")


def _config_kwargs(meta: Mapping[str, Tensor], prefix: str, keys) -> dict:
    """Dropouts as floats, sizes as ints."""
    values = {k: _meta_value(meta, prefix + k) for k in keys}
    return {k: v if "dropout" in k else int(v) for k, v in values.items()}


def _branch_config_meta(cfg: BranchConfig, prefix: str) -> dict[str, np.ndarray]:
    meta = {f"{prefix}{k}": _scalar(getattr(cfg, k)) for k in _BRANCH_SCALARS}
    meta[f"{prefix}dilations"] = np.asarray(cfg.dilations, dtype=np.float64)
    meta[f"{prefix}dtype_f64"] = _scalar(1.0 if cfg.dtype == "f64" else 0.0)
    return meta


def _branch_config_from_meta(meta: Mapping[str, Tensor], prefix: str) -> BranchConfig:
    return BranchConfig(
        dilations=tuple(int(d) for d in np.asarray(meta[f"{prefix}dilations"])),
        dtype="f64" if _meta_value(meta, f"{prefix}dtype_f64") else "f32",
        **_config_kwargs(meta, prefix, _BRANCH_SCALARS))


def _check_shapes(tensors: Mapping[str, Tensor], shapes: dict[str, tuple], path) -> None:
    """Run before a build: every slot the metadata lays out is stored with its shape."""
    for name, shape in shapes.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                                  f"metadata expects {shape}")


def branch_checkpoint_tensors(branch: Branch, modality: str, epoch: int) -> dict[str, Tensor]:
    tensors = dict(branch.named_state())
    tensors["meta.kind"] = _scalar(_KIND_CODE["branch"])
    tensors["meta.epoch"] = _scalar(epoch)
    tensors["meta.modality"] = _scalar(_MODALITY_CODE[modality])
    tensors.update(_branch_config_meta(branch.config, "meta.config."))
    return tensors


def branch_from_checkpoint(path) -> tuple[Branch, str, dict]:
    return _branch_from_tensors(load_checkpoint(path), path)


def _branch_from_tensors(tensors: Mapping[str, Tensor], path) -> tuple[Branch, str, dict]:
    with _reading_metadata(path):
        if _meta_value(tensors, "meta.kind") != _KIND_CODE["branch"]:
            raise CheckpointError(f"{path}: not a branch checkpoint")
        cfg = _branch_config_from_meta(tensors, "meta.config.")
        info = {"epoch": int(_meta_value(tensors, "meta.epoch")),
                "modality": _MODALITY_NAME[_meta_value(tensors, "meta.modality")]}
        _check_shapes(tensors, layout_shapes(cfg.layout()), path)
        branch = Branch(cfg, rng=None)
        branch.load_state({k: v for k, v in tensors.items() if not k.startswith("meta.")})
    return branch, info["modality"], info


def fusion_checkpoint_tensors(model: FusionModel, epoch: int) -> dict[str, Tensor]:
    tensors = dict(model.named_state())
    cfg = model.config
    tensors["meta.kind"] = _scalar(_KIND_CODE["fusion"])
    tensors["meta.epoch"] = _scalar(epoch)
    tensors["meta.config.strategy"] = _scalar(_STRATEGY_CODE[cfg.strategy])
    for k in _FUSION_SCALARS:
        tensors[f"meta.config.{k}"] = _scalar(getattr(cfg, k))
    for mod in MODALITIES:
        tensors.update(_branch_config_meta(model.branches[mod].config,
                                           f"meta.config.branches.{mod}."))
    return tensors


def fusion_from_checkpoint(path) -> tuple[FusionModel, dict]:
    return _fusion_from_tensors(load_checkpoint(path), path)


def _fusion_from_tensors(tensors: Mapping[str, Tensor], path) -> tuple[FusionModel, dict]:
    with _reading_metadata(path):
        if _meta_value(tensors, "meta.kind") != _KIND_CODE["fusion"]:
            raise CheckpointError(f"{path}: not a fusion checkpoint")
        bcfgs = {mod: _branch_config_from_meta(tensors, f"meta.config.branches.{mod}.")
                 for mod in MODALITIES}
        cfg = FusionConfig(
            strategy=_STRATEGY_NAME[_meta_value(tensors, "meta.config.strategy")],
            **_config_kwargs(tensors, "meta.config.", _FUSION_SCALARS))
        info = {"epoch": int(_meta_value(tensors, "meta.epoch"))}
        shapes = layout_shapes(cfg.layout())
        for mod in MODALITIES:
            shapes.update((f"branches.{mod}.{name}", shape)
                          for name, shape in layout_shapes(bcfgs[mod].layout()).items())
        _check_shapes(tensors, shapes, path)
        model = FusionModel({mod: Branch(bcfgs[mod], rng=None) for mod in MODALITIES}, cfg,
                            rng=None)
        model.load_state({k: v for k, v in tensors.items() if not k.startswith("meta.")})
    return model, info


def load_any_checkpoint(path):
    """Return ("branch", Branch, info) or ("fusion", FusionModel, info) from one read."""
    tensors = load_checkpoint(path)
    with _reading_metadata(path):
        kind = _KIND_NAME[_meta_value(tensors, "meta.kind")]
    if kind == "branch":
        branch, _, info = _branch_from_tensors(tensors, path)
        return "branch", branch, info
    model, info = _fusion_from_tensors(tensors, path)
    return "fusion", model, info
