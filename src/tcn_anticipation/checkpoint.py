"""Binary checkpoint format with bit-exact round trips.

Layout (all integers little-endian):

    magic "TCNA" | u16 version | u32 entry count
    per entry: u16 name length | UTF-8 name | u8 dtype code (0=f32, 1=f64)
               | u8 ndim | ndim x u32 dims | raw little-endian payload
    trailing u32 CRC32 of everything after the magic

Training metadata (model kind, epoch, config hash, model config) rides as
ordinary entries under the reserved ``meta.`` prefix, every value stored as
an exact f64.
"""

from __future__ import annotations

import struct
import zlib
from hashlib import sha256
from typing import Mapping

import numpy as np

from .branch import Branch, BranchConfig
from .fusion import MODALITIES, STRATEGIES, FusionConfig, FusionModel
from .tensor import Rng, Tensor

MAGIC = b"TCNA"
VERSION = 1
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_KIND_CODE = {"branch": 0.0, "fusion": 1.0}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_MODALITY_CODE = {"rgb": 0.0, "flow": 1.0, "obj": 2.0}
_MODALITY_NAME = {v: k for k, v in _MODALITY_CODE.items()}


class CheckpointError(ValueError):
    """Malformed, truncated, or incompatible checkpoint."""


def save_checkpoint(path, tensors: Mapping[str, Tensor]) -> None:
    body = bytearray()
    body += struct.pack("<H", VERSION)
    body += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODE:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]}...")
        body += struct.pack("<H", len(encoded))
        body += encoded
        body += struct.pack("<BB", _DTYPE_CODE[arr.dtype], arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        body += arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes(body))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise CheckpointError(
                f"{self.path}: truncated while reading {what} at offset {self.offset}")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk


def load_checkpoint(path) -> dict[str, Tensor]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    body = raw[4:]
    if len(body) < 4:
        raise CheckpointError(f"{path}: truncated before checksum")
    stored_crc, = struct.unpack("<I", body[-4:])
    if zlib.crc32(body[:-4]) != stored_crc:
        raise CheckpointError(f"{path}: CRC32 mismatch, file is corrupt")
    r = _Reader(body[:-4], path)
    version, = struct.unpack("<H", r.take(2, "version"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}, expected {VERSION}")
    count, = struct.unpack("<I", r.take(4, "entry count"))
    tensors: dict[str, Tensor] = {}
    for i in range(count):
        name_len, = struct.unpack("<H", r.take(2, f"entry {i} name length"))
        name = r.take(name_len, f"entry {i} name").decode("utf-8")
        code, ndim = struct.unpack("<BB", r.take(2, f"{name} header"))
        if code not in _CODE_DTYPE:
            raise CheckpointError(f"{path}: entry {name!r} has unknown dtype code {code}")
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim, f"{name} dims"))
        dtype = _CODE_DTYPE[code]
        nbytes = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        if ndim == 0:
            dims = ()
        payload = r.take(nbytes, f"{name} payload")
        tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if r.offset != len(r.data):
        raise CheckpointError(f"{path}: {len(r.data) - r.offset} trailing bytes after last entry")
    return tensors


def parameter_hash(state: Mapping[str, Tensor]) -> str:
    """Order-independent digest of named tensors; detects any bit flip."""
    h = sha256()
    for name in sorted(state):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(state[name]).tobytes())
    return h.hexdigest()


def config_hash(config) -> float:
    return float(zlib.crc32(repr(config).encode("utf-8")))


# -- metadata encoding --------------------------------------------------------

def _scalar(v: float) -> np.ndarray:
    return np.array([float(v)], dtype=np.float64)


_BRANCH_SCALARS = ("input_dim", "num_actions", "num_verbs", "num_nouns",
                   "channels", "kernel", "input_dropout", "block_dropout",
                   "head_dropout")
_FUSION_SCALARS = ("channels", "num_actions", "num_verbs", "num_nouns",
                   "embed_dim", "head_dropout")


def _branch_config_meta(cfg: BranchConfig, prefix: str) -> dict[str, np.ndarray]:
    meta = {f"{prefix}{k}": _scalar(getattr(cfg, k)) for k in _BRANCH_SCALARS}
    meta[f"{prefix}dilations"] = np.asarray(cfg.dilations, dtype=np.float64)
    meta[f"{prefix}dtype_f64"] = _scalar(1.0 if cfg.dtype == "f64" else 0.0)
    meta[f"{prefix}pad"] = _scalar(1.0 if cfg.pad_to_receptive_field else 0.0)
    return meta


def _branch_config_from_meta(meta: Mapping[str, Tensor], prefix: str) -> BranchConfig:
    def scal(key):
        return float(meta[f"{prefix}{key}"][0])

    kwargs = {}
    for k in _BRANCH_SCALARS:
        v = scal(k)
        kwargs[k] = v if "dropout" in k else int(v)
    return BranchConfig(
        dilations=tuple(int(d) for d in np.asarray(meta[f"{prefix}dilations"])),
        dtype="f64" if scal("dtype_f64") else "f32",
        pad_to_receptive_field=bool(scal("pad")),
        **kwargs)


def branch_checkpoint_tensors(branch: Branch, modality: str, epoch: int) -> dict[str, Tensor]:
    tensors = dict(branch.named_state())
    tensors["meta.kind"] = _scalar(_KIND_CODE["branch"])
    tensors["meta.epoch"] = _scalar(epoch)
    tensors["meta.config_hash"] = _scalar(config_hash(branch.config))
    tensors["meta.modality"] = _scalar(_MODALITY_CODE[modality])
    tensors.update(_branch_config_meta(branch.config, "meta.config."))
    return tensors


def branch_from_checkpoint(path) -> tuple[Branch, str, dict]:
    return _branch_from_tensors(load_checkpoint(path), path)


def _branch_from_tensors(tensors: Mapping[str, Tensor], path) -> tuple[Branch, str, dict]:
    if "meta.kind" not in tensors or float(tensors["meta.kind"][0]) != _KIND_CODE["branch"]:
        raise CheckpointError(f"{path}: not a branch checkpoint")
    cfg = _branch_config_from_meta(tensors, "meta.config.")
    branch = Branch(cfg, rng=Rng(0))
    branch.load_state({k: v for k, v in tensors.items() if not k.startswith("meta.")})
    info = {"epoch": int(tensors["meta.epoch"][0]),
            "modality": _MODALITY_NAME[float(tensors["meta.modality"][0])],
            "config_hash": float(tensors["meta.config_hash"][0])}
    return branch, info["modality"], info


def fusion_checkpoint_tensors(model: FusionModel, epoch: int) -> dict[str, Tensor]:
    tensors = dict(model.named_state())
    cfg = model.config
    tensors["meta.kind"] = _scalar(_KIND_CODE["fusion"])
    tensors["meta.epoch"] = _scalar(epoch)
    tensors["meta.config_hash"] = _scalar(config_hash(cfg))
    tensors["meta.config.strategy"] = _scalar(STRATEGIES.index(cfg.strategy))
    for k in _FUSION_SCALARS:
        tensors[f"meta.config.{k}"] = _scalar(getattr(cfg, k))
    tensors["meta.config.dtype_f64"] = _scalar(1.0 if cfg.dtype == "f64" else 0.0)
    for mod in MODALITIES:
        tensors.update(_branch_config_meta(model.branches[mod].config,
                                           f"meta.config.branches.{mod}."))
    return tensors


def fusion_from_checkpoint(path) -> tuple[FusionModel, dict]:
    return _fusion_from_tensors(load_checkpoint(path), path)


def _fusion_from_tensors(tensors: Mapping[str, Tensor], path) -> tuple[FusionModel, dict]:
    if "meta.kind" not in tensors or float(tensors["meta.kind"][0]) != _KIND_CODE["fusion"]:
        raise CheckpointError(f"{path}: not a fusion checkpoint")

    def scal(key):
        return float(tensors[f"meta.config.{key}"][0])

    branches = {}
    for mod in MODALITIES:
        bcfg = _branch_config_from_meta(tensors, f"meta.config.branches.{mod}.")
        branches[mod] = Branch(bcfg, rng=Rng(0))
    kwargs = {k: (scal(k) if k == "head_dropout" else int(scal(k))) for k in _FUSION_SCALARS}
    cfg = FusionConfig(strategy=STRATEGIES[int(scal("strategy"))],
                       dtype="f64" if scal("dtype_f64") else "f32", **kwargs)
    model = FusionModel(branches, cfg, rng=Rng(0))
    model.load_state({k: v for k, v in tensors.items() if not k.startswith("meta.")})
    info = {"epoch": int(tensors["meta.epoch"][0]),
            "config_hash": float(tensors["meta.config_hash"][0])}
    return model, info


def load_any_checkpoint(path):
    """Return ("branch", Branch, info) or ("fusion", FusionModel, info) from one read."""
    tensors = load_checkpoint(path)
    if "meta.kind" not in tensors:
        raise CheckpointError(f"{path}: missing meta.kind entry")
    kind = _KIND_NAME.get(float(tensors["meta.kind"][0]))
    if kind == "branch":
        branch, _, info = _branch_from_tensors(tensors, path)
        return "branch", branch, info
    if kind == "fusion":
        model, info = _fusion_from_tensors(tensors, path)
        return "fusion", model, info
    raise CheckpointError(f"{path}: unknown model kind code")
