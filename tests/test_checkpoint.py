import struct

import numpy as np
import pytest

from tcn_anticipation import checkpoint
from tcn_anticipation.branch import Branch, BranchConfig
from tcn_anticipation.checkpoint import (CheckpointError, branch_checkpoint_tensors,
                                         branch_from_checkpoint, fusion_checkpoint_tensors,
                                         fusion_from_checkpoint, load_any_checkpoint,
                                         load_checkpoint, parameter_hash, save_checkpoint)
from tcn_anticipation.fusion import FusionConfig, FusionModel, MODALITIES
from tcn_anticipation.tensor import Rng, TensorError


def small_branch(seed=0, dtype="f32"):
    cfg = BranchConfig(input_dim=4, num_actions=3, num_verbs=2, num_nouns=2,
                       channels=6, dilations=(1, 2), dtype=dtype)
    return Branch(cfg, Rng(seed))


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path):
        rng = Rng(0)
        tensors = {"a": rng.normal(0, 1, (3, 4), "f32"),
                   "b": rng.normal(0, 1, (7,), "f64"),
                   "c": rng.uniform(-1, 1, (2, 2, 2), "f32")}
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(tensors)
        for k in tensors:
            assert tensors[k].dtype == loaded[k].dtype
            assert tensors[k].tobytes() == loaded[k].tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        branch = small_branch()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, branch_checkpoint_tensors(branch, "rgb", 3))
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_branch_round_trip_preserves_all_state(self, tmp_path):
        branch = small_branch(seed=4)
        branch.blocks[0].bn.running_mean[...] = 0.25  # non-default buffer state
        path = tmp_path / "b.ckpt"
        save_checkpoint(path, branch_checkpoint_tensors(branch, "flow", 11))
        restored, modality, info = branch_from_checkpoint(path)
        assert modality == "flow" and info["epoch"] == 11
        assert parameter_hash(branch.named_state()) == parameter_hash(restored.named_state())

    def test_fusion_round_trip(self, tmp_path):
        rng = Rng(2)
        branches = {mod: small_branch(seed=i) for i, mod in enumerate(MODALITIES)}
        fcfg = FusionConfig(channels=6, num_actions=3, num_verbs=2, num_nouns=2,
                            strategy="pairwise", embed_dim=5, head_dropout=0.2)
        model = FusionModel(branches, fcfg, rng)
        path = tmp_path / "f.ckpt"
        save_checkpoint(path, fusion_checkpoint_tensors(model, 7))
        restored, info = fusion_from_checkpoint(path)
        assert restored.config.strategy == "pairwise" and info["epoch"] == 7
        assert parameter_hash(model.named_state()) == parameter_hash(restored.named_state())


    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    def test_load_any_reads_the_file_once(self, kind, tmp_path, monkeypatch):
        if kind == "branch":
            tensors = branch_checkpoint_tensors(small_branch(), "obj", 2)
        else:
            branches = {mod: small_branch(seed=i) for i, mod in enumerate(MODALITIES)}
            fcfg = FusionConfig(channels=6, num_actions=3, num_verbs=2, num_nouns=2,
                                strategy="attention", embed_dim=5, head_dropout=0.2)
            tensors = fusion_checkpoint_tensors(FusionModel(branches, fcfg, Rng(2)), 2)
        path = tmp_path / "any.ckpt"
        save_checkpoint(path, tensors)
        reads = []
        read = checkpoint.load_checkpoint
        monkeypatch.setattr(checkpoint, "load_checkpoint",
                            lambda p: reads.append(p) or read(p))
        got_kind, model, info = load_any_checkpoint(path)
        assert (got_kind, info["epoch"], reads) == (kind, 2, [path])
        assert parameter_hash(model.named_state()) == parameter_hash(
            {k: v for k, v in tensors.items() if not k.startswith("meta.")})


class TestCorruption:
    def write_branch(self, tmp_path):
        path = tmp_path / "b.ckpt"
        save_checkpoint(path, branch_checkpoint_tensors(small_branch(), "rgb", 0))
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_branch(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = self.write_branch(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 99)
        body = raw[4:-4]
        raw[-4:] = struct.pack("<I", __import__("zlib").crc32(bytes(body)))
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_single_corrupt_payload_byte_detected(self, tmp_path):
        path = self.write_branch(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC32"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = self.write_branch(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "u.ckpt"
        save_checkpoint(path, {"x": np.zeros(2, np.float32)})
        raw = bytearray(path.read_bytes())
        # entry header: magic(4) version(2) count(4) namelen(2) name(1) -> dtype byte
        dtype_at = 4 + 2 + 4 + 2 + 1
        raw[dtype_at] = 7
        body = raw[4:-4]
        raw[-4:] = struct.pack("<I", __import__("zlib").crc32(bytes(body)))
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="dtype code"):
            load_checkpoint(path)

    def test_shape_mismatch_on_load_names_tensor(self, tmp_path):
        path = self.write_branch(tmp_path)
        tensors = load_checkpoint(path)
        tensors["embed.weight"] = np.zeros((2, 2, 1), np.float32)
        save_checkpoint(path, tensors)
        with pytest.raises(TensorError, match="embed.weight"):
            branch_from_checkpoint(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = self.write_branch(tmp_path)
        with pytest.raises(CheckpointError, match="fusion"):
            fusion_from_checkpoint(path)
