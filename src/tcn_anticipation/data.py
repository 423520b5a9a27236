"""Splits, samples and the on-disk dataset layout.

A sample is one observed window: per-modality matrices of N snippet feature
vectors plus action/verb/noun labels. A split of W windows is a directory of
``index.csv``, a UTF-8 CSV with header ``id,action,verb,noun`` and integer
labels in [0, 2**63), and one FSEQ file per modality (``rgb.fseq``,
``flow.fseq``, ``obj.fseq``) whose k-th window the index's k-th row labels:

    magic "FSEQ" | u16 version (2) | u8 modality code | u32 W | u32 N | u32 D
    | W*N*D float32 little-endian row-major | trailing u32 CRC32 of everything
    after the magic

In memory a :class:`Split` holds the same columns: the ids, one int64 label array
per head and one (W, N, D) array per modality, which ``read_dataset`` views in the
buffers it reads the files into. Slicing a split gives a split of views and
indexing one a :class:`Sample` view, and ``stack_features`` returns read-only
(B, D, N) views of it, so no batch copies the split; the branch copies only the
batch or chunk it computes on.

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
    """Malformed dataset file, or a batch the split cannot give."""


@dataclass
class Sample:
    sample_id: str
    features: dict[str, Tensor] = field(repr=False)  # modality -> (N, D) float32
    action: int
    verb: int
    noun: int


@dataclass(frozen=True, eq=False)
class Split:
    """W windows: their ids, one (W,) int64 label array per head and one (W, N, D) array
    per modality, whose rows the k-th window owns. ``split[a:b]`` and ``split[::k]`` are
    splits of views, ``split[i]`` a sample whose features are views. ``name`` says
    where the split came from, for errors."""

    name: str
    ids: list[str] = field(repr=False)
    labels: dict[str, np.ndarray] = field(repr=False)
    features: dict[str, Tensor] = field(repr=False)

    def __post_init__(self):
        """A split whose columns disagree is a ``DatasetError`` where it is made, not
        when its files are read back."""
        w = len(self.ids)
        for kind, have, want in (("modalities", self.features, MODALITIES),
                                 ("label heads", self.labels, HEADS)):
            if sorted(have) != sorted(want):
                raise DatasetError(f"split {self.name} has {kind} {sorted(have)}, "
                                   f"expected {sorted(want)}")
        for head in HEADS:
            labels = np.asarray(self.labels[head])
            if labels.shape != (w,):
                raise DatasetError(f"split {self.name} has {head} labels of shape "
                                   f"{labels.shape}, {w} ids")
            integral = np.issubdtype(labels.dtype, np.integer)
            if w and not (integral and 0 <= labels.min() and labels.max() <= LABEL_MAX):
                bad = labels[(labels < 0) | (labels > LABEL_MAX)] if integral else labels
                raise DatasetError(f"split {self.name} has {head} label {bad[0]} "
                                   f"({labels.dtype}); index.csv holds integers in "
                                   f"[0, {LABEL_MAX}]")
        first = MODALITIES[0]
        for mod in MODALITIES:
            shape = np.shape(self.features[mod])
            if len(shape) != 3 or shape[0] != w:
                raise DatasetError(f"split {self.name} has {mod} features of shape {shape}, "
                                   f"expected (W, N, D) with W = {w} ids")
            n, n0 = shape[1], np.shape(self.features[first])[1]
            if n != n0:
                raise DatasetError(f"split {self.name} has {n} {mod} snippets per window, "
                                   f"{n0} {first}")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Split(self.name, self.ids[key],
                         {head: arr[key] for head, arr in self.labels.items()},
                         {mod: arr[key] for mod, arr in self.features.items()})
        return Sample(self.ids[key], {mod: arr[key] for mod, arr in self.features.items()},
                      *(int(self.labels[head][key]) for head in HEADS))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def num_snippets(self) -> int:
        return next(iter(self.features.values())).shape[1]


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
    read into; a NaN or infinite feature is a ``DatasetError``."""
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
    features = raw[start:-4].view("<f4").reshape(w, n, d)
    finite = np.isfinite(features)
    if not finite.all():  # the CRC guards the bytes, not whether they are numbers
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise DatasetError(f"{path}: non-finite feature {features[at]} at "
                           f"(window, snippet, dim) {at}")
    return MODALITIES[code], features


def write_dataset(split: Split, out_dir) -> Path:
    """Writes the CSV index and one FSEQ file per modality, rows in split order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for mod in MODALITIES:
        write_feature_file(out_dir / f"{mod}.fseq", mod, split.features[mod])
    index_path = out_dir / "index.csv"
    with open(index_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([INDEX_HEADER, *zip(split.ids, *(split.labels[head].tolist()
                                                                for head in HEADS))])
    return index_path


def read_dataset(index_path) -> Split:
    """A split whose (W, N, D) arrays are views of the buffers its files are read into."""
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
    features, first = {}, index_path.parent / f"{MODALITIES[0]}.fseq"
    for mod in MODALITIES:
        path = index_path.parent / f"{mod}.fseq"
        file_mod, features[mod] = read_feature_file(path)
        if file_mod != mod:
            raise DatasetError(f"{path} holds {file_mod} features, expected {mod}")
        if len(features[mod]) != len(rows):
            raise DatasetError(
                f"{path} holds {len(features[mod])} windows, {index_path} has {len(rows)} rows")
        n, n0 = features[mod].shape[1], features[MODALITIES[0]].shape[1]
        if rows and n != n0:
            raise DatasetError(f"{path} holds {n} snippets per window, {first} holds {n0}")
    return Split(str(index_path), [row[0] for row in rows],
                 {head: np.array([row[j] for row in labels], np.int64)
                  for j, head in enumerate(HEADS)}, features)


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def stack_features(split: Split, modality: str,
                   last_n: int | None = None) -> tuple[Tensor, dict[str, np.ndarray]]:
    """(B, D, N) batch of one modality plus the label arrays, the most recent ``last_n``
    snippets kept: read-only views of the split, so writing into them is a ValueError."""
    if not len(split):
        raise DatasetError("empty dataset")
    x = split.features[modality]
    if last_n is not None:
        n = x.shape[1]
        if last_n > n:
            raise DatasetError(f"split {split.name} has {n} snippets per window, need {last_n}")
        x = x[:, n - last_n:]
    return (_read_only(x.transpose(0, 2, 1)),
            {head: _read_only(split.labels[head]) for head in HEADS})
