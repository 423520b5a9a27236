"""Samples and the on-disk dataset layout.

A sample is one observed window: per-modality matrices of N snippet feature
vectors plus action/verb/noun labels. A split of W windows is a directory of
``index.csv``, a UTF-8 CSV with header ``id,action,verb,noun`` and integer
labels in [0, 2**63), and one FSEQ file per modality (``rgb.fseq``,
``flow.fseq``, ``obj.fseq``) whose k-th window the index's k-th row labels:

    magic "FSEQ" | u16 version (2) | u8 modality code | u32 W | u32 N | u32 D
    | W*N*D float32 little-endian row-major | trailing u32 CRC32 of everything
    after the magic

Adapters for external feature dumps are out of scope: to import data, write
each modality's (W, N, D) array, rows in index order, with
`write_feature_file` beside such an index.
"""

from __future__ import annotations

import csv
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import Tensor

MODALITIES = ("rgb", "flow", "obj")  # a modality's FSEQ code is its position here
HEADS = ("action", "verb", "noun")
FSEQ_MAGIC = b"FSEQ"
FSEQ_VERSION = 2
FSEQ_HEADER = struct.Struct("<HBIII")  # version, modality code, W, N, D
INDEX_HEADER = ["id", *HEADS]
LABEL_MAX = 2**63 - 1  # labels are stacked as int64


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
    """Writes one split's (W, N, D) features of one modality."""
    if modality not in MODALITIES:
        raise DatasetError(f"unknown modality {modality!r}")
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 3:
        raise DatasetError(f"features must be (W, N, D), got shape {arr.shape}")
    header = FSEQ_HEADER.pack(FSEQ_VERSION, MODALITIES.index(modality), *arr.shape)
    with open(path, "wb") as fh:
        fh.write(FSEQ_MAGIC + header)
        fh.write(arr)
        fh.write(struct.pack("<I", zlib.crc32(arr, zlib.crc32(header))))


def read_feature_file(path) -> tuple[str, Tensor]:
    """The modality and (W, N, D) features of one file, a view of the one buffer it is
    read into."""
    try:
        with open(path, "rb") as fh:
            # the features start 4 + 15 bytes in: read to offset 1 to align them
            raw = np.empty(os.fstat(fh.fileno()).st_size + 1, np.uint8)[1:]
            raw = raw[:fh.readinto(raw)]
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if raw[:4].tobytes() != FSEQ_MAGIC:
        raise DatasetError(f"{path}: bad magic {raw[:4].tobytes()!r}, expected {FSEQ_MAGIC!r}")
    start = 4 + FSEQ_HEADER.size
    if len(raw) < start + 4:
        raise DatasetError(f"{path}: truncated header at offset {len(raw)}")
    version, code, w, n, d = FSEQ_HEADER.unpack_from(raw, 4)
    if version != FSEQ_VERSION:
        raise DatasetError(f"{path}: unsupported version {version}, expected {FSEQ_VERSION}")
    if code >= len(MODALITIES):
        raise DatasetError(f"{path}: unknown modality code {code}")
    expected = start + w * n * d * 4 + 4
    if len(raw) < expected:
        raise DatasetError(f"{path}: truncated at offset {len(raw)}, expected {expected} bytes")
    if len(raw) > expected:
        raise DatasetError(f"{path}: {len(raw) - expected} trailing bytes")
    if zlib.crc32(raw[4:-4]) != struct.unpack_from("<I", raw, expected - 4)[0]:
        raise DatasetError(f"{path}: CRC32 mismatch, file is corrupt")
    return MODALITIES[code], raw[start:-4].view("<f4").reshape(w, n, d)


def write_dataset(samples: list[Sample], out_dir) -> Path:
    """Writes the CSV index and one FSEQ file per modality, rows in sample order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for mod in MODALITIES:
        rows = _rows(samples, mod)
        write_feature_file(out_dir / f"{mod}.fseq", mod,
                           np.stack(rows) if rows else np.empty((0, 0, 0)))
    index_path = out_dir / "index.csv"
    with open(index_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([INDEX_HEADER, *([s.sample_id, s.action, s.verb, s.noun]
                                                  for s in samples)])
    return index_path


def read_dataset(index_path) -> list[Sample]:
    """A split's samples, each one's features a row of its modality's file."""
    index_path = Path(index_path)
    if not index_path.is_file():
        raise DatasetError(f"index file {index_path} is missing or not a file")
    try:
        with open(index_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{index_path}: unreadable index: {exc}") from None
    if rows[:1] != [INDEX_HEADER]:
        raise DatasetError(f"{index_path}: unexpected header {rows[0] if rows else None}")
    rows = rows[1:]
    labels = []
    for row in rows:
        if len(row) != len(INDEX_HEADER) or not all(v.isdecimal() for v in row[1:]):
            raise DatasetError(
                f"{index_path}: row {row} is not an id and three non-negative integer labels")
        labels.append([int(v) for v in row[1:]])
        if max(labels[-1]) > LABEL_MAX:
            raise DatasetError(f"{index_path}: row {row} has a label above {LABEL_MAX}, "
                               "the largest int64")
    features = {}
    for mod in MODALITIES:
        path = index_path.parent / f"{mod}.fseq"
        file_mod, features[mod] = read_feature_file(path)
        if file_mod != mod:
            raise DatasetError(f"{path} holds {file_mod} features, expected {mod}")
        if len(features[mod]) != len(rows):
            raise DatasetError(
                f"{path} holds {len(features[mod])} windows, {index_path} has {len(rows)} rows")
    return [Sample(row[0], {mod: features[mod][i] for mod in MODALITIES}, *row_labels)
            for i, (row, row_labels) in enumerate(zip(rows, labels))]


def _rows(samples: list[Sample], modality: str, last_n: int | None = None) -> list[Tensor]:
    """Each sample's (N, D) features of one modality, the most recent ``last_n`` kept."""
    rows = []
    for s in samples:
        arr = s.features[modality]
        if last_n is not None:
            if last_n > arr.shape[0]:
                raise DatasetError(
                    f"sample {s.sample_id!r} has {arr.shape[0]} snippets, need {last_n}")
            arr = arr[arr.shape[0] - last_n:]
        if rows and arr.shape != rows[0].shape:
            raise DatasetError(
                f"sample {s.sample_id!r} has {modality} features of shape {arr.shape}, "
                f"sample {samples[0].sample_id!r} has {rows[0].shape}")
        rows.append(arr)
    return rows


def stack_features(samples: list[Sample], modality: str,
                   last_n: int | None = None) -> tuple[Tensor, dict[str, np.ndarray]]:
    """(B, D, N) batch of one modality plus label arrays, most recent N kept."""
    if not samples:
        raise DatasetError("empty dataset")
    x = np.ascontiguousarray(np.stack([arr.T for arr in _rows(samples, modality, last_n)]))
    labels = {head: np.array([s.labels[head] for s in samples], dtype=np.int64)
              for head in HEADS}
    return x, labels
