import re
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from tcn_anticipation import data
from tcn_anticipation.data import (HEADS, MODALITIES, DatasetError, Split, read_dataset,
                                   read_feature_file, stack_features, write_dataset,
                                   write_feature_file)
from tcn_anticipation.synthetic import complementary_spec, generate_synthetic, learnable_spec
from tcn_anticipation.tensor import Rng
from tcn_anticipation.training import stack_modalities


BAD_INDEX_ROWS = {"non_integer_label": b"s0,x,1,2", "non_utf8_index": b"s\xff0,1,1,2",
                  "negative_label": b"s0,-1,1,2",
                  "label_beyond_int64": b"s0,1,9223372036854775808,2"}


def write_bad_index_row(index, case: str) -> None:
    """Replace the index's first row with ``BAD_INDEX_ROWS[case]``, keeping the row count
    the feature files hold."""
    header, _, *rows = index.read_bytes().splitlines()
    index.write_bytes(b"\n".join([header, BAD_INDEX_ROWS[case], *rows]) + b"\n")


def random_split(rng, windows, n=5, dims=(4, 3, 2)):
    """Windows "s0", "s1", ... with random (W, N, D) features per modality, random actions
    in [0, 4), verb 1 and noun 2."""
    features = {mod: rng.normal(0, 1, (windows, n, d), "f32") for mod, d in zip(MODALITIES, dims)}
    labels = {"action": rng.uniform(0, 4, (windows,), "f64").astype(np.int64),
              "verb": np.full(windows, 1, np.int64), "noun": np.full(windows, 2, np.int64)}
    return Split("random", [f"s{i}" for i in range(windows)], labels, features)


def assert_same_windows(got, want):
    assert got.ids == want.ids
    for head in HEADS:
        assert np.array_equal(got.labels[head], want.labels[head])
    for mod in MODALITIES:
        assert got.features[mod].tobytes() == want.features[mod].tobytes()


def write_version_1_file(path, modality, arr):
    """The retired one-window layout: a 15-byte header and an (N, D) body."""
    body = struct.pack("<HBII", 1, MODALITIES.index(modality), *arr.shape) + arr.tobytes()
    path.write_bytes(b"FSEQ" + body + struct.pack("<I", zlib.crc32(body)))


SPLIT_FILE_CORRUPTIONS = ("bad_magic", "truncated", "crc", "trailing_bytes", "wrong_modality",
                          "window_count", "version_1")


def corrupt_split_file(path, case: str) -> None:
    """Break a split's ``<modality>.fseq`` as ``SPLIT_FILE_CORRUPTIONS`` names."""
    mod, arr = read_feature_file(path)
    raw = bytearray(path.read_bytes())
    if case == "bad_magic":
        raw[:4] = b"QESF"
    elif case == "truncated":
        raw = raw[:-5]
    elif case == "crc":
        raw[30] ^= 1
    elif case == "trailing_bytes":
        raw += b"\0\0"
    path.write_bytes(bytes(raw))
    if case == "wrong_modality":
        write_feature_file(path, MODALITIES[MODALITIES.index(mod) - 1], arr)
    elif case == "window_count":
        write_feature_file(path, mod, arr[1:])
    elif case == "version_1":
        write_version_1_file(path, mod, arr[0])


def put_non_finite(path, value, at=(3, 5, 2)) -> None:
    """Rewrite a feature file, CRC and all, with ``value`` at (window, snippet, dim) ``at``
    and at a later place, so that only the first can be named."""
    mod, arr = read_feature_file(path)
    arr = arr.copy()
    arr[at] = value
    arr[at[0], -1, -1] = value
    write_feature_file(path, mod, arr)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = Rng(0)
        for windows in (0, 1, 3):
            arr = rng.normal(0, 1, (windows, 6, 5), "f32")
            path = tmp_path / "x.fseq"
            write_feature_file(path, "flow", arr)
            modality, loaded = read_feature_file(path)
            assert modality == "flow" and loaded.shape == arr.shape
            assert arr.tobytes() == loaded.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fseq"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(DatasetError, match="magic"):
            read_feature_file(path)

    def test_truncation_names_file_and_offset(self, tmp_path):
        rng = Rng(1)
        path = tmp_path / "x.fseq"
        write_feature_file(path, "rgb", rng.normal(0, 1, (3, 8, 4), "f32"))
        raw = path.read_bytes()
        path.write_bytes(raw[:-13])
        with pytest.raises(DatasetError, match=f"x.fseq: truncated at offset {len(raw) - 13}"):
            read_feature_file(path)

    def test_trailing_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "x.fseq"
        write_feature_file(path, "obj", Rng(1).normal(0, 1, (2, 3, 4), "f32"))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DatasetError, match="x.fseq: 1 trailing bytes"):
            read_feature_file(path)

    def test_corrupt_byte_detected(self, tmp_path):
        rng = Rng(2)
        path = tmp_path / "x.fseq"
        write_feature_file(path, "obj", rng.normal(0, 1, (2, 8, 4), "f32"))
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="CRC32"):
            read_feature_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.fseq"
        write_version_1_file(path, "rgb", Rng(3).normal(0, 1, (2, 2), "f32"))
        with pytest.raises(DatasetError, match="x.fseq: unsupported version 1, expected 2"):
            read_feature_file(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_feature_names_the_file_and_the_first_place(self, value, tmp_path):
        """The CRC of a file written with a NaN holds; the value is still no feature."""
        path = tmp_path / "x.fseq"
        write_feature_file(path, "rgb", Rng(6).normal(0, 1, (4, 7, 5), "f32"))
        put_non_finite(path, value)
        with pytest.raises(DatasetError, match=re.escape(
                f"x.fseq: non-finite feature {value} at (window, snippet, dim) (3, 5, 2)")):
            read_feature_file(path)

    def test_one_window_matrix_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match=r"\(W, N, D\)"):
            write_feature_file(tmp_path / "x.fseq", "rgb", np.zeros((2, 2), np.float32))


class TestDatasetRoundTrip:
    def test_ten_random_samples_identical(self, tmp_path):
        split = random_split(Rng(5), 10)
        loaded = read_dataset(write_dataset(split, tmp_path))
        assert len(loaded) == 10
        assert_same_windows(loaded, split)

    def test_a_split_is_an_index_and_one_file_per_modality(self, tmp_path):
        write_dataset(random_split(Rng(5), 4), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["flow.fseq", "index.csv", "obj.fseq", "rgb.fseq"]
        assert (tmp_path / "index.csv").read_text().splitlines()[0] == "id,action,verb,noun"

    def test_a_row_not_its_id_names_the_features(self, tmp_path):
        """Ids that repeat, hold a path separator or a comma each keep their own window."""
        split = replace(random_split(Rng(13), 5), ids=["a", "a", "x/y", "../e", "p,q"])
        split.labels["verb"][:] = np.arange(5)
        loaded = read_dataset(write_dataset(split, tmp_path / "split"))
        assert loaded.ids == ["a", "a", "x/y", "../e", "p,q"]
        assert_same_windows(loaded, split)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["split"]

    @pytest.mark.parametrize("spec", [learnable_spec, complementary_spec])
    def test_stacked_splits_equal_the_samples_written(self, spec, tmp_path):
        """The oracle: every split and modality batches to the bytes generated."""
        splits = generate_synthetic(spec(train_per_class=3, val_per_class=2), 21)
        for name, split in zip(("train", "val"), splits):
            loaded = read_dataset(write_dataset(split, tmp_path / name))
            for mod in MODALITIES:
                want, want_labels = stack_features(split, mod)
                got, got_labels = stack_features(loaded, mod)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                for head in want_labels:
                    assert np.array_equal(got_labels[head], want_labels[head])

    def test_empty_split_round_trips(self, tmp_path):
        assert len(read_dataset(write_dataset(random_split(Rng(0), 0), tmp_path))) == 0
        assert read_feature_file(tmp_path / "rgb.fseq")[1].shape[0] == 0

    def test_reads_one_file_per_modality(self, tmp_path, monkeypatch):
        index = write_dataset(random_split(Rng(5), 7), tmp_path)
        reads = []
        real = data.read_feature_file
        monkeypatch.setattr(data, "read_feature_file",
                            lambda path: reads.append(path) or real(path))
        assert len(read_dataset(index)) == 7
        assert reads == [tmp_path / f"{mod}.fseq" for mod in MODALITIES]

    def test_snippet_disagreement_rejected(self, tmp_path):
        """A hand-built split whose modalities disagree in snippet count fails where it is
        made, so it is never written."""
        split = random_split(Rng(8), 2)
        features = {**split.features, "flow": Rng(9).normal(0, 1, (2, 6, 3), "f32")}
        with pytest.raises(DatasetError, match=re.escape(
                "split random has 6 flow snippets per window, 5 rgb")):
            replace(split, features=features)
        assert list(tmp_path.iterdir()) == []

    def test_missing_modality_file_names_it(self, tmp_path):
        index = write_dataset(random_split(Rng(6), 1), tmp_path)
        (tmp_path / "flow.fseq").unlink()
        with pytest.raises(DatasetError, match=re.escape(str(tmp_path / "flow.fseq"))):
            read_dataset(index)

    def test_feature_path_that_is_a_directory_names_it(self, tmp_path):
        index = write_dataset(random_split(Rng(6), 1), tmp_path)
        path = tmp_path / "obj.fseq"
        path.unlink()
        path.mkdir()
        with pytest.raises(DatasetError, match=re.escape(str(path))):
            read_dataset(index)

    def test_missing_index(self, tmp_path):
        with pytest.raises(DatasetError):
            read_dataset(tmp_path / "absent.csv")

    @pytest.mark.parametrize("reader", [read_dataset, read_feature_file])
    @pytest.mark.parametrize("case", ["directory", "missing"])
    def test_unreadable_path_is_a_dataset_error_naming_it(self, reader, case, tmp_path):
        path = tmp_path / "x"
        if case == "directory":
            path.mkdir()
        with pytest.raises(DatasetError, match=str(path)):
            reader(path)

    @pytest.mark.parametrize("case", BAD_INDEX_ROWS)
    def test_bad_index_row_is_dataset_error(self, tmp_path, case):
        index = write_dataset(random_split(Rng(11), 2), tmp_path)
        write_bad_index_row(index, case)
        with pytest.raises(DatasetError, match=re.escape(f"{index}: ")):
            read_dataset(index)

    def test_a_label_beyond_int64_names_the_row_and_the_largest_fits(self, tmp_path):
        index = write_dataset(random_split(Rng(12), 2), tmp_path)
        write_bad_index_row(index, "label_beyond_int64")
        with pytest.raises(DatasetError, match=re.escape(
                f"{index}: row ['s0', '1', '9223372036854775808', '2'] has a label above "
                "9223372036854775807")):
            read_dataset(index)
        header, _, row = index.read_text(encoding="utf-8").splitlines()
        index.write_text(f"{header}\ns0,1,{2**63 - 1},2\n{row}\n", encoding="utf-8")
        _, labels = stack_features(read_dataset(index), "rgb")
        assert labels["verb"][0] == 2**63 - 1

    def test_modality_mismatch_detected(self, tmp_path):
        rng = Rng(7)
        index = write_dataset(random_split(rng, 1), tmp_path)
        write_feature_file(tmp_path / "rgb.fseq", "obj", rng.normal(0, 1, (1, 5, 4), "f32"))
        with pytest.raises(DatasetError, match=re.escape(f"{tmp_path / 'rgb.fseq'} holds obj")):
            read_dataset(index)

    def test_window_count_unequal_to_index_rows_names_the_file(self, tmp_path):
        rng = Rng(7)
        index = write_dataset(random_split(rng, 3), tmp_path)
        write_feature_file(tmp_path / "obj.fseq", "obj", rng.normal(0, 1, (2, 5, 2), "f32"))
        with pytest.raises(DatasetError, match=re.escape(
                f"{tmp_path / 'obj.fseq'} holds 2 windows, {index} has 3 rows")):
            read_dataset(index)

    @pytest.mark.parametrize("case", SPLIT_FILE_CORRUPTIONS)
    def test_corrupt_split_file_names_it(self, case, tmp_path):
        index = write_dataset(random_split(Rng(4), 2), tmp_path)
        corrupt_split_file(tmp_path / "flow.fseq", case)
        with pytest.raises(DatasetError, match=re.escape(str(tmp_path / "flow.fseq"))):
            read_dataset(index)


class TestStackFeatures:
    def test_shapes_and_truncation(self):
        split = random_split(Rng(9), 3, n=8)
        x, labels = stack_features(split, "rgb", last_n=5)
        assert x.shape == (3, 4, 5)
        full, _ = stack_features(split, "rgb")
        assert np.array_equal(x, full[:, :, -5:])
        assert labels["verb"].tolist() == [1, 1, 1]

    def test_too_short_rejected(self):
        with pytest.raises(DatasetError):
            stack_features(random_split(Rng(10), 1, n=4), "rgb", last_n=9)

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            stack_features(random_split(Rng(0), 0), "rgb")


def split_on_disk(tmp_path, windows=10, n=6, dims=(4, 3, 2)):
    """A random split as ``read_dataset`` gives it back."""
    return read_dataset(write_dataset(random_split(Rng(14), windows, n, dims), tmp_path))


class TestSplitViews:
    """Stacking, slicing and indexing a split views its arrays; nothing copies it."""

    def test_stacked_arrays_share_memory_with_the_split(self, tmp_path):
        split = split_on_disk(tmp_path)
        for mod in MODALITIES:
            x, labels = stack_features(split, mod)
            assert np.shares_memory(x, split.features[mod])
            assert x.tobytes() == split.features[mod].transpose(0, 2, 1).tobytes()
            for head in HEADS:
                assert np.shares_memory(labels[head], split.labels[head])
        inputs, labels = stack_modalities(split[2:8])
        for mod in MODALITIES:
            assert np.shares_memory(inputs[mod], split.features[mod])
        assert labels["action"].tolist() == split.labels["action"][2:8].tolist()

    def test_a_synthetic_split_is_viewed_too(self):
        train, _ = generate_synthetic(learnable_spec(train_per_class=2, val_per_class=0), 3)
        x, labels = stack_features(train[::5], "flow", last_n=9)
        assert np.shares_memory(x, train.features["flow"])
        assert np.shares_memory(labels["noun"], train.labels["noun"])

    def test_slices_and_items_hold_the_right_rows(self, tmp_path):
        split = split_on_disk(tmp_path)
        samples = list(split)
        for key in (slice(3, 7), slice(None, None, 3), slice(1, None, 4), slice(8, 2, -2)):
            part = split[key]
            assert isinstance(part, Split) and part.ids == [s.sample_id for s in samples[key]]
            for mod in MODALITIES:
                assert np.shares_memory(part.features[mod], split.features[mod])
                assert np.array_equal(part.features[mod], split.features[mod][key])
            for head in HEADS:
                assert part.labels[head].tolist() == [getattr(s, head) for s in samples[key]]
        for i in (0, 4, -1):
            s = split[i]
            assert s.sample_id == split.ids[i]
            for head in HEADS:
                assert getattr(s, head) == split.labels[head][i]
            for mod in MODALITIES:
                assert np.shares_memory(s.features[mod], split.features[mod])
                assert s.features[mod].tobytes() == split.features[mod][i].tobytes()

    def test_last_n_is_a_view_of_the_last_snippets(self, tmp_path):
        split = split_on_disk(tmp_path, n=8)
        x, _ = stack_features(split, "rgb", last_n=5)
        assert x.shape == (10, 4, 5) and np.shares_memory(x, split.features["rgb"])
        assert x.tobytes() == split.features["rgb"][:, 3:].transpose(0, 2, 1).tobytes()

    def test_stacking_a_1000_window_split_allocates_under_1_mib(self):
        train, _ = generate_synthetic(learnable_spec(train_per_class=84, val_per_class=0), 2)
        assert len(train) == 1008 and train.features["rgb"].nbytes > 2 << 20
        tracemalloc.start()
        try:
            batches = [stack_features(train, mod) for mod in MODALITIES]
            batches.append(stack_features(train, "rgb", last_n=13))
            batches.append(stack_modalities(train[::2]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak / (1 << 20)


class TestSplitErrors:
    def test_writing_into_a_stacked_batch_raises(self, tmp_path):
        split = split_on_disk(tmp_path)
        x, labels = stack_features(split, "obj", last_n=4)
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            labels["verb"][:] = 0
        inputs, _ = stack_modalities(split)
        with pytest.raises(ValueError, match="read-only"):
            inputs["rgb"] += 1.0

    def test_modality_files_that_disagree_in_snippet_count_name_both(self, tmp_path):
        index = write_dataset(random_split(Rng(15), 3), tmp_path)
        write_feature_file(tmp_path / "obj.fseq", "obj", Rng(16).normal(0, 1, (3, 7, 2), "f32"))
        with pytest.raises(DatasetError, match=re.escape(
                f"{tmp_path / 'obj.fseq'} holds 7 snippets per window, "
                f"{tmp_path / 'rgb.fseq'} holds 5")):
            read_dataset(index)

    def test_last_n_beyond_the_window_names_the_split_and_both_counts(self, tmp_path):
        split = split_on_disk(tmp_path, n=6)
        for part in (split, split[2:5]):
            with pytest.raises(DatasetError, match=re.escape(
                    f"split {tmp_path / 'index.csv'} has 6 snippets per window, need 9")):
                stack_features(part, "flow", last_n=9)

    @pytest.mark.parametrize("mod", MODALITIES)
    def test_features_that_disagree_with_the_ids_in_window_count_are_rejected(self, mod):
        split = random_split(Rng(17), 2)
        features = {**split.features, mod: Rng(18).normal(0, 1, (3, 5, 2), "f32")}
        with pytest.raises(DatasetError, match=re.escape(
                f"split random has {mod} features of shape (3, 5, 2), "
                "expected (W, N, D) with W = 2 ids")):
            replace(split, features=features)

    def test_features_that_are_not_w_n_d_are_rejected(self):
        split = random_split(Rng(19), 2)
        with pytest.raises(DatasetError, match=re.escape(
                "split random has obj features of shape (2, 10), expected (W, N, D)")):
            replace(split, features={**split.features, "obj": np.zeros((2, 10), np.float32)})

    @pytest.mark.parametrize("head", HEADS)
    def test_labels_that_disagree_with_the_ids_in_length_are_rejected(self, head):
        split = random_split(Rng(20), 4)
        labels = {**split.labels, head: split.labels[head][:3]}
        with pytest.raises(DatasetError, match=re.escape(
                f"split random has {head} labels of shape (3,), 4 ids")):
            replace(split, labels=labels)

    def test_a_missing_modality_or_head_is_named(self):
        split = random_split(Rng(21), 2)
        with pytest.raises(DatasetError, match=re.escape(
                "split random has modalities ['flow', 'rgb'], expected ['flow', 'obj', 'rgb']")):
            replace(split, features={m: split.features[m] for m in ("rgb", "flow")})
        with pytest.raises(DatasetError, match=re.escape(
                "split random has label heads ['action', 'noun'], "
                "expected ['action', 'noun', 'verb']")):
            replace(split, labels={h: split.labels[h] for h in ("action", "noun")})

    def test_every_slice_of_a_valid_split_is_valid(self, tmp_path):
        split = split_on_disk(tmp_path)
        for key in (slice(None), slice(1, 3), slice(None, None, 2), slice(3, 1), slice(-1, None)):
            part = split[key]
            assert part.ids == split.ids[key]
            assert all(len(part.features[mod]) == len(part) for mod in MODALITIES)
