import re
import struct
import zlib

import numpy as np
import pytest

from tcn_anticipation import data
from tcn_anticipation.data import (MODALITIES, DatasetError, Sample, read_dataset,
                                   read_feature_file, stack_features, write_dataset,
                                   write_feature_file)
from tcn_anticipation.synthetic import complementary_spec, generate_synthetic, learnable_spec
from tcn_anticipation.tensor import Rng


BAD_INDEX_ROWS = {"non_integer_label": b"s0,x,1,2", "non_utf8_index": b"s\xff0,1,1,2",
                  "negative_label": b"s0,-1,1,2",
                  "label_beyond_int64": b"s0,1,9223372036854775808,2"}


def write_bad_index_row(index, case: str) -> None:
    """Replace the index's first row with ``BAD_INDEX_ROWS[case]``, keeping the row count
    the feature files hold."""
    header, _, *rows = index.read_bytes().splitlines()
    index.write_bytes(b"\n".join([header, BAD_INDEX_ROWS[case], *rows]) + b"\n")


def random_sample(rng, sid, n=5, dims=(4, 3, 2)):
    feats = {mod: rng.normal(0, 1, (n, d), "f32")
             for mod, d in zip(("rgb", "flow", "obj"), dims)}
    return Sample(sid, feats, int(rng.uniform(0, 4, ())), 1, 2)


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

    def test_one_window_matrix_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match=r"\(W, N, D\)"):
            write_feature_file(tmp_path / "x.fseq", "rgb", np.zeros((2, 2), np.float32))


class TestDatasetRoundTrip:
    def test_ten_random_samples_identical(self, tmp_path):
        rng = Rng(5)
        samples = [random_sample(rng, f"s{i:03d}") for i in range(10)]
        index = write_dataset(samples, tmp_path)
        loaded = read_dataset(index)
        assert len(loaded) == 10
        for a, b in zip(samples, loaded):
            assert a.sample_id == b.sample_id and a.labels == b.labels
            for mod in ("rgb", "flow", "obj"):
                assert a.features[mod].tobytes() == b.features[mod].tobytes()

    def test_a_split_is_an_index_and_one_file_per_modality(self, tmp_path):
        write_dataset([random_sample(Rng(5), f"s{i}") for i in range(4)], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["flow.fseq", "index.csv", "obj.fseq", "rgb.fseq"]
        assert (tmp_path / "index.csv").read_text().splitlines()[0] == "id,action,verb,noun"

    def test_a_row_not_its_id_names_the_features(self, tmp_path):
        """Ids that repeat, hold a path separator or a comma each keep their own window."""
        rng = Rng(13)
        samples = [random_sample(rng, sid) for sid in ("a", "a", "x/y", "../e", "p,q")]
        for verb, s in enumerate(samples):
            s.verb = verb
        loaded = read_dataset(write_dataset(samples, tmp_path / "split"))
        assert [s.sample_id for s in loaded] == ["a", "a", "x/y", "../e", "p,q"]
        for a, b in zip(samples, loaded):
            assert a.labels == b.labels
            for mod in MODALITIES:
                assert a.features[mod].tobytes() == b.features[mod].tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["split"]

    @pytest.mark.parametrize("spec", [learnable_spec, complementary_spec])
    def test_stacked_splits_equal_the_samples_written(self, spec, tmp_path):
        """The oracle: every split and modality batches to the bytes generated."""
        splits = generate_synthetic(spec(train_per_class=3, val_per_class=2), 21)
        for name, samples in zip(("train", "val"), splits):
            loaded = read_dataset(write_dataset(samples, tmp_path / name))
            for mod in MODALITIES:
                want, want_labels = stack_features(samples, mod)
                got, got_labels = stack_features(loaded, mod)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                for head in want_labels:
                    assert np.array_equal(got_labels[head], want_labels[head])

    def test_empty_split_round_trips(self, tmp_path):
        assert read_dataset(write_dataset([], tmp_path)) == []
        assert read_feature_file(tmp_path / "rgb.fseq")[1].shape[0] == 0

    def test_reads_one_file_per_modality(self, tmp_path, monkeypatch):
        index = write_dataset([random_sample(Rng(5), f"s{i}") for i in range(7)], tmp_path)
        reads = []
        real = data.read_feature_file
        monkeypatch.setattr(data, "read_feature_file",
                            lambda path: reads.append(path) or real(path))
        assert len(read_dataset(index)) == 7
        assert reads == [tmp_path / f"{mod}.fseq" for mod in MODALITIES]

    def test_unequal_shapes_rejected_naming_both_samples(self, tmp_path):
        rng = Rng(12)
        samples = [random_sample(rng, "s0"), random_sample(rng, "s1", dims=(4, 5, 2))]
        with pytest.raises(DatasetError, match=r"'s1' has flow features of shape \(5, 5\), "
                                               r"sample 's0' has \(5, 3\)"):
            write_dataset(samples, tmp_path)

    def test_missing_modality_file_names_it(self, tmp_path):
        index = write_dataset([random_sample(Rng(6), "lost")], tmp_path)
        (tmp_path / "flow.fseq").unlink()
        with pytest.raises(DatasetError, match=re.escape(str(tmp_path / "flow.fseq"))):
            read_dataset(index)

    def test_feature_path_that_is_a_directory_names_it(self, tmp_path):
        index = write_dataset([random_sample(Rng(6), "hollow")], tmp_path)
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
        rng = Rng(11)
        index = write_dataset([random_sample(rng, "s0"), random_sample(rng, "s1")], tmp_path)
        write_bad_index_row(index, case)
        with pytest.raises(DatasetError, match=re.escape(f"{index}: ")):
            read_dataset(index)

    def test_a_label_beyond_int64_names_the_row_and_the_largest_fits(self, tmp_path):
        rng = Rng(12)
        index = write_dataset([random_sample(rng, "s0"), random_sample(rng, "s1")], tmp_path)
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
        index = write_dataset([random_sample(rng, "swap")], tmp_path)
        write_feature_file(tmp_path / "rgb.fseq", "obj", rng.normal(0, 1, (1, 5, 4), "f32"))
        with pytest.raises(DatasetError, match=re.escape(f"{tmp_path / 'rgb.fseq'} holds obj")):
            read_dataset(index)

    def test_window_count_unequal_to_index_rows_names_the_file(self, tmp_path):
        rng = Rng(7)
        index = write_dataset([random_sample(rng, f"s{i}") for i in range(3)], tmp_path)
        write_feature_file(tmp_path / "obj.fseq", "obj", rng.normal(0, 1, (2, 5, 2), "f32"))
        with pytest.raises(DatasetError, match=re.escape(
                f"{tmp_path / 'obj.fseq'} holds 2 windows, {index} has 3 rows")):
            read_dataset(index)

    @pytest.mark.parametrize("case", SPLIT_FILE_CORRUPTIONS)
    def test_corrupt_split_file_names_it(self, case, tmp_path):
        index = write_dataset([random_sample(Rng(4), f"s{i}") for i in range(2)], tmp_path)
        corrupt_split_file(tmp_path / "flow.fseq", case)
        with pytest.raises(DatasetError, match=re.escape(str(tmp_path / "flow.fseq"))):
            read_dataset(index)

    def test_snippet_disagreement_rejected(self):
        rng = Rng(8)
        feats = {"rgb": rng.normal(0, 1, (5, 4), "f32"),
                 "flow": rng.normal(0, 1, (6, 4), "f32"),
                 "obj": rng.normal(0, 1, (5, 4), "f32")}
        with pytest.raises(DatasetError, match="disagree"):
            Sample("bad", feats, 0, 0, 0)


class TestStackFeatures:
    def test_shapes_and_truncation(self):
        rng = Rng(9)
        samples = [random_sample(rng, f"s{i}", n=8) for i in range(3)]
        x, labels = stack_features(samples, "rgb", last_n=5)
        assert x.shape == (3, 4, 5)
        full, _ = stack_features(samples, "rgb")
        assert np.array_equal(x, full[:, :, -5:])
        assert labels["verb"].tolist() == [1, 1, 1]

    def test_too_short_rejected(self):
        rng = Rng(10)
        samples = [random_sample(rng, "s", n=4)]
        with pytest.raises(DatasetError):
            stack_features(samples, "rgb", last_n=9)

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            stack_features([], "rgb")

    @pytest.mark.parametrize("last_n", [None, 3])
    def test_unequal_shapes_name_the_sample_and_both_shapes(self, last_n):
        rng = Rng(12)
        samples = [random_sample(rng, f"s{i}") for i in range(3)]
        samples[2].features["rgb"] = rng.normal(0, 1, (5, 6), "f32")
        n = 5 if last_n is None else last_n
        with pytest.raises(DatasetError, match=rf"'s2' has rgb features of shape \({n}, 6\), "
                                               rf"sample 's0' has \({n}, 4\)"):
            stack_features(samples, "rgb", last_n)
