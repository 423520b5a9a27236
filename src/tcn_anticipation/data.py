"""Samples and the on-disk feature format.

A sample is one observed window: per-modality matrices of N snippet feature
vectors plus action/verb/noun labels. Feature files use the FSEQ layout:

    magic "FSEQ" | u16 version | u8 modality code | u32 N | u32 D
    | N*D float32 little-endian row-major | trailing u32 CRC32 of everything
    after the magic

The dataset index is a UTF-8 CSV with header
``id,action,verb,noun,rgb_path,flow_path,obj_path``; paths are relative to the
index file. Adapters for external feature dumps are out of scope: to import
data, write one FSEQ file per (sample, modality) with `write_feature_file` and
list them in such an index.
"""

from __future__ import annotations

import csv
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import Tensor

MODALITIES = ("rgb", "flow", "obj")  # a modality's FSEQ code is its position here
HEADS = ("action", "verb", "noun")
FSEQ_MAGIC = b"FSEQ"
FSEQ_VERSION = 1
INDEX_HEADER = ["id", "action", "verb", "noun", "rgb_path", "flow_path", "obj_path"]


class DatasetError(ValueError):
    """Malformed dataset file or inconsistent sample."""


@dataclass
class Sample:
    sample_id: str
    features: dict[str, Tensor] = field(repr=False)  # modality -> (N, D) float32
    action: int
    verb: int
    noun: int

    def __post_init__(self):
        lengths = {mod: arr.shape[0] for mod, arr in self.features.items()}
        if len(set(lengths.values())) > 1:
            raise DatasetError(
                f"sample {self.sample_id!r}: modalities disagree on snippet count {lengths}")

    @property
    def num_snippets(self) -> int:
        return next(iter(self.features.values())).shape[0]

    @property
    def labels(self) -> dict[str, int]:
        return {"action": self.action, "verb": self.verb, "noun": self.noun}


def write_feature_file(path, modality: str, features: Tensor) -> None:
    if modality not in MODALITIES:
        raise DatasetError(f"unknown modality {modality!r}")
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 2:
        raise DatasetError(f"features must be (N, D), got shape {arr.shape}")
    body = struct.pack("<HBII", FSEQ_VERSION, MODALITIES.index(modality),
                       arr.shape[0], arr.shape[1])
    body += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(FSEQ_MAGIC)
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def read_feature_file(path) -> tuple[str, Tensor]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if raw[:4] != FSEQ_MAGIC:
        raise DatasetError(f"{path}: bad magic {raw[:4]!r}, expected {FSEQ_MAGIC!r}")
    if len(raw) < 4 + 11 + 4:
        raise DatasetError(f"{path}: truncated header at offset {len(raw)}")
    version, code, n, d = struct.unpack("<HBII", raw[4:15])
    if version != FSEQ_VERSION:
        raise DatasetError(f"{path}: unsupported version {version}, expected {FSEQ_VERSION}")
    if code >= len(MODALITIES):
        raise DatasetError(f"{path}: unknown modality code {code}")
    expected = 4 + 11 + n * d * 4 + 4
    if len(raw) < expected:
        raise DatasetError(
            f"{path}: truncated at offset {len(raw)}, expected {expected} bytes")
    if len(raw) > expected:
        raise DatasetError(f"{path}: {len(raw) - expected} trailing bytes")
    body, stored = raw[4:-4], raw[-4:]
    if zlib.crc32(body) != struct.unpack("<I", stored)[0]:
        raise DatasetError(f"{path}: CRC32 mismatch, file is corrupt")
    features = np.frombuffer(body[11:], dtype="<f4").reshape(n, d).copy()
    return MODALITIES[code], features


def write_dataset(samples: list[Sample], out_dir) -> Path:
    """Write one FSEQ file per (sample, modality) plus the CSV index."""
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    index_path = out_dir / "index.csv"
    with open(index_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INDEX_HEADER)
        for s in samples:
            paths = {}
            for mod in MODALITIES:
                rel = f"features/{s.sample_id}_{mod}.fseq"
                write_feature_file(out_dir / rel, mod, s.features[mod])
                paths[mod] = rel
            writer.writerow([s.sample_id, s.action, s.verb, s.noun,
                             paths["rgb"], paths["flow"], paths["obj"]])
    return index_path


def read_dataset(index_path) -> list[Sample]:
    index_path = Path(index_path)
    if not index_path.is_file():
        raise DatasetError(f"index file {index_path} is missing or not a file")
    base = index_path.parent
    try:
        with open(index_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{index_path}: unreadable index: {exc}") from None
    if rows[:1] != [INDEX_HEADER]:
        raise DatasetError(f"{index_path}: unexpected header {rows[0] if rows else None}")
    samples = []
    for row in rows[1:]:
        if len(row) != len(INDEX_HEADER):
            raise DatasetError(f"{index_path}: malformed row {row}")
        try:
            labels = [int(v) for v in row[1:4]]
        except ValueError:
            raise DatasetError(f"{index_path}: non-integer label in row {row}") from None
        sid = row[0]
        features = {}
        for mod, rel in zip(MODALITIES, row[4:7]):
            path = base / rel
            if not path.is_file():
                raise DatasetError(
                    f"sample {sid!r}: {mod} feature file {path} is missing or not a file")
            file_mod, arr = read_feature_file(path)
            if file_mod != mod:
                raise DatasetError(
                    f"sample {sid!r}: {path} holds {file_mod} features, index says {mod}")
            features[mod] = arr
        samples.append(Sample(sid, features, *labels))
    return samples


def stack_features(samples: list[Sample], modality: str,
                   last_n: int | None = None) -> tuple[Tensor, dict[str, np.ndarray]]:
    """(B, D, N) batch of one modality plus label arrays, most recent N kept."""
    if not samples:
        raise DatasetError("empty dataset")
    mats = []
    for s in samples:
        arr = s.features[modality]
        if last_n is not None:
            if last_n > arr.shape[0]:
                raise DatasetError(
                    f"sample {s.sample_id!r} has {arr.shape[0]} snippets, need {last_n}")
            arr = arr[arr.shape[0] - last_n:]
        if mats and arr.shape != mats[0].T.shape:
            raise DatasetError(
                f"sample {s.sample_id!r} has {modality} features of shape {arr.shape}, "
                f"sample {samples[0].sample_id!r} has {mats[0].T.shape}")
        mats.append(arr.T)
    x = np.ascontiguousarray(np.stack(mats))
    labels = {head: np.array([s.labels[head] for s in samples], dtype=np.int64)
              for head in HEADS}
    return x, labels
