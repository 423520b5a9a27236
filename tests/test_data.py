import struct

import numpy as np
import pytest

from tcn_anticipation.data import (DatasetError, Sample, read_dataset, read_feature_file,
                                   stack_features, write_dataset, write_feature_file)
from tcn_anticipation.tensor import Rng


BAD_INDEX_ROWS = {"non_integer_label": b"s0,x,1,2,", "non_utf8_index": b"s\xff0,1,1,2,"}


def write_bad_index_row(index, case: str) -> None:
    """Replace the index's rows with one whose id and labels are ``BAD_INDEX_ROWS[case]``."""
    header, row = index.read_bytes().splitlines()[:2]
    index.write_bytes(header + b"\n" + BAD_INDEX_ROWS[case] + row.split(b",", 4)[4] + b"\n")


def random_sample(rng, sid, n=5, dims=(4, 3, 2)):
    feats = {mod: rng.normal(0, 1, (n, d), "f32")
             for mod, d in zip(("rgb", "flow", "obj"), dims)}
    return Sample(sid, feats, int(rng.uniform(0, 4, ())), 1, 2)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = Rng(0)
        arr = rng.normal(0, 1, (6, 5), "f32")
        path = tmp_path / "x.fseq"
        write_feature_file(path, "flow", arr)
        modality, loaded = read_feature_file(path)
        assert modality == "flow"
        assert arr.tobytes() == loaded.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fseq"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(DatasetError, match="magic"):
            read_feature_file(path)

    def test_truncation_names_file_and_offset(self, tmp_path):
        rng = Rng(1)
        path = tmp_path / "x.fseq"
        write_feature_file(path, "rgb", rng.normal(0, 1, (8, 4), "f32"))
        raw = path.read_bytes()
        path.write_bytes(raw[:-13])
        with pytest.raises(DatasetError) as err:
            read_feature_file(path)
        assert "x.fseq" in str(err.value)

    def test_corrupt_byte_detected(self, tmp_path):
        rng = Rng(2)
        path = tmp_path / "x.fseq"
        write_feature_file(path, "obj", rng.normal(0, 1, (8, 4), "f32"))
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="CRC32"):
            read_feature_file(path)

    def test_version_mismatch(self, tmp_path):
        import zlib
        rng = Rng(3)
        path = tmp_path / "x.fseq"
        write_feature_file(path, "rgb", rng.normal(0, 1, (2, 2), "f32"))
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        body = raw[4:-4]
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(body)))
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="version"):
            read_feature_file(path)


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

    def test_missing_modality_file_names_sample(self, tmp_path):
        rng = Rng(6)
        samples = [random_sample(rng, "lost")]
        index = write_dataset(samples, tmp_path)
        (tmp_path / "features" / "lost_flow.fseq").unlink()
        with pytest.raises(DatasetError, match="lost"):
            read_dataset(index)

    def test_missing_index(self, tmp_path):
        with pytest.raises(DatasetError):
            read_dataset(tmp_path / "absent.csv")

    @pytest.mark.parametrize("case", BAD_INDEX_ROWS)
    def test_bad_index_row_is_dataset_error(self, tmp_path, case):
        index = write_dataset([random_sample(Rng(11), "s0")], tmp_path)
        write_bad_index_row(index, case)
        with pytest.raises(DatasetError):
            read_dataset(index)

    def test_modality_mismatch_detected(self, tmp_path):
        rng = Rng(7)
        samples = [random_sample(rng, "swap")]
        index = write_dataset(samples, tmp_path)
        # overwrite the rgb file with obj-coded content
        write_feature_file(tmp_path / "features" / "swap_rgb.fseq", "obj",
                           rng.normal(0, 1, (5, 4), "f32"))
        with pytest.raises(DatasetError, match="swap"):
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
