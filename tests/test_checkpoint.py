import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tcn_anticipation import checkpoint
from tcn_anticipation.branch import Branch, BranchConfig
from tcn_anticipation.checkpoint import (CheckpointError, branch_checkpoint_tensors,
                                         branch_from_checkpoint, fusion_checkpoint_tensors,
                                         fusion_from_checkpoint, load_any_checkpoint,
                                         load_checkpoint, parameter_hash, save_checkpoint)
from tcn_anticipation.fusion import FusionConfig, FusionModel, MODALITIES
from tcn_anticipation.tensor import Rng


def small_branch(seed=0, dtype="f32"):
    cfg = BranchConfig(input_dim=4, num_actions=3, num_verbs=2, num_nouns=2,
                       channels=6, dilations=(1, 2), dtype=dtype)
    return Branch(cfg, Rng(seed))


def small_fusion_tensors():
    """An attention fusion checkpoint at epoch 2."""
    branches = {mod: small_branch(seed=i) for i, mod in enumerate(MODALITIES)}
    fcfg = FusionConfig(channels=6, num_actions=3, num_verbs=2, num_nouns=2,
                        strategy="attention", embed_dim=5, head_dropout=0.2)
    return fusion_checkpoint_tensors(FusionModel(branches, fcfg, Rng(2)), 2)


def with_crc(raw: bytes) -> bytes:
    """``raw`` with the trailing CRC32 recomputed, so only the parser can object."""
    body = raw[4:-4]
    return raw[:4] + body + struct.pack("<I", zlib.crc32(body))


def write_broken_checkpoint(case: str, path, branch_tensors=None) -> None:
    """A CRC-valid checkpoint with one defect in its bytes or metadata; the branch
    cases break a copy of ``branch_tensors`` when given."""
    tensors = (small_fusion_tensors() if case in ("strategy_index_9", "flipped_branch_dtype")
               else dict(branch_tensors or branch_checkpoint_tensors(small_branch(), "rgb", 0)))
    if case == "missing_kernel":
        del tensors["meta.config.kernel"]
    elif case == "modality_code_7":
        tensors["meta.modality"] = np.array([7.0])
    elif case == "modality_code_minus_1":
        tensors["meta.modality"] = np.array([-1.0])
    elif case == "kind_code_half":
        tensors["meta.kind"] = np.array([0.5])
    elif case == "strategy_index_9":
        tensors["meta.config.strategy"] = np.array([9.0])
    elif case == "unknown_tensor":
        tensors["blocks.9.conv.weight"] = np.zeros((6, 6, 3), np.float32)
    elif case == "flipped_branch_dtype":
        tensors["meta.config.branches.obj.dtype_f64"] = np.array([1.0])
    elif case == "missing_bias":
        del tensors["heads.action.bias"]
    save_checkpoint(path, tensors)
    renamed = {"non_utf8_name": (b"embed.weight", b"embed.w\xffight"),
               "duplicate_name": (b"blocks.0.bn.gamma", b"blocks.1.bn.gamma")}
    if case in renamed:
        path.write_bytes(with_crc(path.read_bytes().replace(*renamed[case])))


BROKEN_CASES = ("non_utf8_name", "missing_kernel", "modality_code_7", "modality_code_minus_1",
                "kind_code_half", "strategy_index_9", "unknown_tensor", "flipped_branch_dtype",
                "missing_bias", "duplicate_name")

# Every metadata entry of the small checkpoints, in the order the format's first
# writer used: kind, epoch, modality (fusion: the strategy), the scalar fields,
# then dilations and dtype_f64 per branch config.
SMALL_BRANCH_CONFIG_META = {
    "input_dim": [4.0], "num_actions": [3.0], "num_verbs": [2.0], "num_nouns": [2.0],
    "channels": [6.0], "kernel": [3.0], "input_dropout": [0.3], "block_dropout": [0.5],
    "head_dropout": [0.7], "dilations": [1.0, 2.0], "dtype_f64": [0.0]}
GOLDEN_META = {
    "branch": {"meta.kind": [0.0], "meta.epoch": [2.0], "meta.modality": [1.0],
               **{f"meta.config.{k}": v for k, v in SMALL_BRANCH_CONFIG_META.items()}},
    "fusion": {"meta.kind": [1.0], "meta.epoch": [2.0], "meta.config.strategy": [1.0],
               "meta.config.channels": [6.0], "meta.config.num_actions": [3.0],
               "meta.config.num_verbs": [2.0], "meta.config.num_nouns": [2.0],
               "meta.config.embed_dim": [5.0], "meta.config.head_dropout": [0.2],
               **{f"meta.config.branches.{mod}.{k}": v for mod in MODALITIES
                  for k, v in SMALL_BRANCH_CONFIG_META.items()}}}


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

    def test_one_entry_golden_bytes(self, tmp_path):
        path = tmp_path / "one.ckpt"
        save_checkpoint(path, {"x": np.array([1.0, -2.0], np.float32)})
        assert path.read_bytes() == bytes.fromhex(
            "54434e41" "0100" "01000000"               # magic, version 1, one entry
            "0100" "78" "00" "01" "02000000"          # name "x", f32, 1 dim of 2
            "0000803f" "000000c0"                      # 1.0, -2.0
            "432e72af")                                # CRC32 of all after the magic

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


    def test_load_peak_stays_near_one_file_size(self, tmp_path):
        rng = Rng(0)
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, {f"w{i}": rng.normal(0, 1, (256, 1024), "f32") for i in range(8)})
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in loaded.values()) == 8 * 256 * 1024 * 4
        assert peak < 1.1 * size, f"peak {peak} B for a {size} B file"

    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    def test_load_any_reads_the_file_once(self, kind, tmp_path, monkeypatch):
        tensors = (branch_checkpoint_tensors(small_branch(), "obj", 2) if kind == "branch"
                   else small_fusion_tensors())
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

    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    def test_loaded_model_adopts_the_arrays_read(self, kind, tmp_path, monkeypatch):
        """Each weight is copied once, out of the file buffer, and the model keeps that copy."""
        tensors = (branch_checkpoint_tensors(small_branch(), "obj", 2) if kind == "branch"
                   else small_fusion_tensors())
        save_checkpoint(tmp_path / "m.ckpt", tensors)
        read = []
        load = checkpoint.load_checkpoint
        monkeypatch.setattr(checkpoint, "load_checkpoint",
                            lambda p: read.append(load(p)) or read[-1])
        _, model, _ = load_any_checkpoint(tmp_path / "m.ckpt")
        state = model.named_state()
        assert len(read) == 1 and state
        assert all(state[name] is read[0][name] for name in state)

    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    def test_load_any_draws_no_random_init(self, kind, tmp_path, monkeypatch):
        tensors = (branch_checkpoint_tensors(small_branch(), "obj", 2) if kind == "branch"
                   else small_fusion_tensors())
        save_checkpoint(tmp_path / "any.ckpt", tensors)
        draws = []
        uniform = Rng.uniform
        monkeypatch.setattr(Rng, "uniform", lambda *a: draws.append(a) or uniform(*a))
        load_any_checkpoint(tmp_path / "any.ckpt")
        assert draws == []

    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    def test_retired_meta_entries_still_load(self, kind, tmp_path):
        if kind == "branch":
            tensors = branch_checkpoint_tensors(small_branch(), "obj", 2)
            retired = {"meta.config_hash": 123.0, "meta.config.pad": 0.0}
        else:
            tensors = small_fusion_tensors()
            retired = {"meta.config_hash": 123.0, "meta.config.dtype_f64": 0.0,
                       **{f"meta.config.branches.{mod}.pad": 0.0 for mod in MODALITIES}}
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, {**tensors, **{k: np.array([v]) for k, v in retired.items()}})
        _, model, info = load_any_checkpoint(path)
        assert info["epoch"] == 2 and parameter_hash(model.named_state()) == parameter_hash(
            {k: v for k, v in tensors.items() if not k.startswith("meta.")})
        resaved = (branch_checkpoint_tensors(model, "obj", 2) if kind == "branch"
                   else fusion_checkpoint_tensors(model, 2))
        assert not set(retired) & set(resaved)


def small_tensors(kind):
    """A flow branch at epoch 2, or the attention fusion checkpoint at epoch 2."""
    return (branch_checkpoint_tensors(small_branch(), "flow", 2) if kind == "branch"
            else small_fusion_tensors())


def meta_values(tensors):
    assert all(v.dtype == np.float64 and v.ndim == 1
               for k, v in tensors.items() if k.startswith("meta."))
    return {k: v.tolist() for k, v in tensors.items() if k.startswith("meta.")}


class TestMetadataFormat:
    """The entries are derived from the config dataclasses, so these pin the format."""

    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    def test_every_entry_name_and_value(self, kind):
        assert meta_values(small_tensors(kind)) == GOLDEN_META[kind]

    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    def test_first_writers_entry_order_loads(self, kind, tmp_path):
        tensors = small_tensors(kind)
        state = {k: v for k, v in tensors.items() if not k.startswith("meta.")}
        path = tmp_path / "ordered.ckpt"
        save_checkpoint(path, {**state, **{k: np.array(v) for k, v in GOLDEN_META[kind].items()}})
        assert [k for k in load_checkpoint(path) if k.startswith("meta.")] == list(
            GOLDEN_META[kind])
        got_kind, model, info = load_any_checkpoint(path)
        assert (got_kind, info) == (kind, {"epoch": 2, "modality": "flow"} if kind == "branch"
                                    else {"epoch": 2})
        assert parameter_hash(model.named_state()) == parameter_hash(state)
        resaved = (branch_checkpoint_tensors(model, "flow", 2) if kind == "branch"
                   else fusion_checkpoint_tensors(model, 2))
        assert meta_values(resaved) == GOLDEN_META[kind]


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

    def test_claimed_payload_beyond_the_file_allocates_nothing(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        save_checkpoint(path, {"x": np.zeros((1, 1), np.float64)})
        raw = path.read_bytes()
        dims_at = 4 + 2 + 4 + 2 + 1 + 2  # magic, version, count, name length, name, code+ndim
        raw = raw[:dims_at] + struct.pack("<II", 1 << 31, 1 << 31) + raw[dims_at + 8:]
        path.write_bytes(with_crc(raw))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_corrupt_header_reported_as_crc_mismatch(self, tmp_path):
        """A flipped header byte breaks parsing too, but the CRC names the cause."""
        path = tmp_path / "h.ckpt"
        save_checkpoint(path, {"x": np.zeros(2, np.float32)})
        raw = bytearray(path.read_bytes())
        raw[4 + 2 + 4 + 2 + 1] = 7  # the dtype code, CRC left as written
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC32"):
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
        with pytest.raises(CheckpointError, match="embed.weight"):
            branch_from_checkpoint(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = self.write_branch(tmp_path)
        with pytest.raises(CheckpointError, match="fusion"):
            fusion_from_checkpoint(path)

    @pytest.mark.parametrize("case", BROKEN_CASES)
    def test_bad_bytes_or_metadata_are_checkpoint_errors(self, case, tmp_path):
        path = tmp_path / "broken.ckpt"
        write_broken_checkpoint(case, path)
        with pytest.raises(CheckpointError):
            load_any_checkpoint(path)

    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    @pytest.mark.parametrize("name", ["embed.bias", "blocks.1.bn.gamma",
                                      "blocks.0.bn.running_var"])
    def test_every_slot_needs_a_stored_tensor(self, kind, name, tmp_path):
        """Each loader names the slot with no stored tensor instead of keeping its
        build value."""
        if kind == "branch":
            tensors, loaders = branch_checkpoint_tensors(small_branch(), "rgb", 0), (
                branch_from_checkpoint, load_any_checkpoint)
        else:
            tensors, loaders = small_fusion_tensors(), (fusion_from_checkpoint,
                                                        load_any_checkpoint)
            name = f"branches.flow.{name}"
        del tensors[name]
        save_checkpoint(tmp_path / "c.ckpt", tensors)
        for load in loaders:
            with pytest.raises(CheckpointError, match=f"missing tensor '{name}'"):
                load(tmp_path / "c.ckpt")

    @pytest.mark.parametrize("loader", [load_checkpoint, branch_from_checkpoint])
    def test_name_stored_twice_rejected(self, loader, tmp_path):
        write_broken_checkpoint("duplicate_name", tmp_path / "d.ckpt")
        with pytest.raises(CheckpointError, match="'blocks.1.bn.gamma' is stored twice"):
            loader(tmp_path / "d.ckpt")

    def test_metadata_cannot_outgrow_stored_weights(self, tmp_path):
        tensors = branch_checkpoint_tensors(small_branch(), "rgb", 0)
        tensors["meta.config.channels"] = np.array([6.0 * 2 ** 16])
        save_checkpoint(tmp_path / "big.ckpt", tensors)
        with pytest.raises(CheckpointError, match="embed.weight"):
            branch_from_checkpoint(tmp_path / "big.ckpt")

    @pytest.mark.parametrize("kind", ["branch", "fusion"])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(st.integers(-2048, 1 << 16), st.integers(0, 255)),
                          min_size=1, max_size=4))
    def test_mutated_bytes_raise_only_typed_errors(self, kind, edits, tmp_path):
        """Byte edits anywhere after the magic (the tail, where metadata sits, weighted
        up) with the CRC recomputed: a load succeeds or raises a CheckpointError."""
        path = tmp_path / "fuzz.ckpt"
        save_checkpoint(path, branch_checkpoint_tensors(small_branch(), "flow", 1)
                        if kind == "branch" else small_fusion_tensors())
        raw = bytearray(path.read_bytes())
        for pos, value in edits:
            raw[pos - 4 if pos < 0 else 4 + pos % (len(raw) - 8)] = value
        path.write_bytes(with_crc(bytes(raw)))
        try:
            load_any_checkpoint(path)
        except CheckpointError:
            pass
