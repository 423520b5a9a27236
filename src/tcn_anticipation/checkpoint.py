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
twice, bad metadata, a stored weight whose shape disagrees with the metadata
(checked before any model is built), a stored tensor that has no slot in the
model built, and a slot of that model with no stored tensor.
"""

from __future__ import annotations

import math
import struct
import zlib
from contextlib import contextmanager
from hashlib import sha256
from typing import Mapping

import numpy as np

from .branch import Branch, BranchConfig
from .fusion import MODALITIES, PAIRS, STRATEGIES, FusionConfig, FusionModel
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
    def __init__(self, data: memoryview, path):
        self.data = data
        self.path = path
        self.offset = 0

    def take(self, n: int, what: str) -> memoryview:
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
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated before checksum")
    body = memoryview(raw)[4:-4]
    stored_crc, = struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) != stored_crc:
        raise CheckpointError(f"{path}: CRC32 mismatch, file is corrupt")
    r = _Reader(body, path)
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
        dtype = _CODE_DTYPE[code]
        payload = r.take(math.prod(dims) * dtype.itemsize, f"{name} payload")
        try:  # zero-size tensors whose other dims overflow numpy's shape limit
            tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        except ValueError:
            raise CheckpointError(f"{path}: entry {name!r} has unusable dims {dims}") from None
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


def _branch_weight_shapes(cfg: BranchConfig, prefix: str = "") -> dict[str, tuple]:
    c = cfg.channels
    shapes = {f"{prefix}embed.weight": (c, cfg.input_dim, 1)}
    shapes.update({f"{prefix}blocks.{i}.conv.weight": (c, c, cfg.kernel)
                   for i in range(len(cfg.dilations))})
    shapes.update({f"{prefix}heads.{h}.weight": (k, c) for h, k in cfg.class_counts.items()})
    return shapes


def _fusion_weight_shapes(cfg: FusionConfig) -> dict[str, tuple]:
    c, e = cfg.channels, cfg.embed_dim
    shapes = {f"fusion.pairwise.{a}_{b}.weight": (e, 2 * c) for a, b in PAIRS}
    shapes.update({"fusion.pairwise_merge.weight": (e, 3 * e), "fusion.mutual.weight": (e, 3 * c)})
    shapes.update({f"fusion.heads.{h}.weight": (k, e) for h, k in cfg.class_counts.items()})
    return shapes


def _check_weight_shapes(tensors: Mapping[str, Tensor], shapes: dict[str, tuple], path) -> None:
    """Run before a build: every weight the metadata sizes is stored with that shape."""
    for name, shape in shapes.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                                  f"metadata expects {shape}")


def _load_model_state(model, tensors: Mapping[str, Tensor], path) -> None:
    """Fill every slot of ``model`` from its stored tensor."""
    state = {k: v for k, v in tensors.items() if not k.startswith("meta.")}
    missing = next((name for name in model.state_slots() if name not in state), None)
    if missing is not None:
        raise CheckpointError(f"{path}: missing tensor {missing!r}")
    model.load_state(state)


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
        _check_weight_shapes(tensors, _branch_weight_shapes(cfg), path)
        branch = Branch(cfg, rng=None)
        _load_model_state(branch, tensors, path)
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
        for mod in MODALITIES:
            _check_weight_shapes(tensors, _branch_weight_shapes(bcfgs[mod], f"branches.{mod}."),
                                 path)
        _check_weight_shapes(tensors, _fusion_weight_shapes(cfg), path)
        model = FusionModel({mod: Branch(bcfgs[mod], rng=None) for mod in MODALITIES}, cfg,
                            rng=None)
        _load_model_state(model, tensors, path)
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
