import numpy as np
import pytest

from tcn_anticipation.data import HEADS
from tcn_anticipation.synthetic import (SyntheticSpec, action_table, class_templates,
                                        complementary_spec, generate_synthetic,
                                        learnable_spec, long_range_spec)
from tcn_anticipation.tensor import TensorError

from oracles import nearest_template_predict


def noiseless_spec(**overrides):
    base = dict(sigma=0.0, train_per_class=4, val_per_class=2)
    base.update(overrides)
    return SyntheticSpec(**base)


def collect(samples, modality):
    x = np.stack([s.features[modality].astype(np.float64) for s in samples])
    y = np.array([s.action for s in samples])
    return x, y


class TestActionTable:
    def test_default_table_shape(self):
        table = action_table(SyntheticSpec())
        assert len(table) == 12
        assert len(set(table)) == 12  # all (verb, noun) pairs distinct

    def test_partners_use_partner_verbs_and_nouns(self):
        table = action_table(SyntheticSpec())
        for a in range(0, 12, 2):
            va, na = table[a]
            vb, nb = table[a + 1]
            assert vb == va + 1 and nb == na + 1

    def test_every_verb_appears(self):
        table = action_table(SyntheticSpec())
        assert {v for v, _ in table} == set(range(6))

    def test_uncoverable_grid_rejected(self):
        with pytest.raises(TensorError, match="coverable"):
            SyntheticSpec(num_verbs=2, num_nouns=2, num_actions=4)

    def test_odd_counts_rejected(self):
        with pytest.raises(TensorError):
            SyntheticSpec(num_verbs=5)

    @pytest.mark.parametrize("field", ["train_per_class", "val_per_class"])
    def test_negative_per_class_count_rejected(self, field):
        with pytest.raises(TensorError, match=f"{field}=-2"):
            SyntheticSpec(**{field: -2})
        SyntheticSpec(**{field: 0})  # an empty split is a legal spec

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(TensorError, match="sigma"):
            SyntheticSpec(sigma=sigma)


class TestNoiselessSeparability:
    def test_flow_obj_recover_verb_noun_exactly(self):
        spec = noiseless_spec()
        train, _ = generate_synthetic(spec, 77)
        table = action_table(spec)
        flow_t = class_templates(spec, 77, "flow")
        obj_t = class_templates(spec, 77, "obj")
        x_flow, y = collect(train, "flow")
        x_obj, _ = collect(train, "obj")
        pred_v = [table[a][0] for a in nearest_template_predict(x_flow, flow_t)]
        pred_n = [table[a][1] for a in nearest_template_predict(x_obj, obj_t)]
        want_v = [table[a][0] for a in y]
        want_n = [table[a][1] for a in y]
        assert pred_v == want_v and pred_n == want_n

    def test_late_window_only_is_chance_within_pair(self):
        # the distinguishing component lives in snippets 1..8; the last 13
        # snippets are identical for confusable partners, so a late-window
        # decoder resolves the pair but not the member
        spec = noiseless_spec()
        train, _ = generate_synthetic(spec, 77)
        rgb_t = class_templates(spec, 77, "rgb")
        x, y = collect(train, "rgb")
        pred = nearest_template_predict(x, rgb_t, last_n=13)
        pair_correct = (pred // 2 == y // 2).mean()
        member_correct = (pred == y).mean()
        assert pair_correct == 1.0
        assert member_correct == pytest.approx(0.5)

    def test_full_window_member_recovery(self):
        spec = noiseless_spec()
        train, _ = generate_synthetic(spec, 77)
        rgb_t = class_templates(spec, 77, "rgb")
        x, y = collect(train, "rgb")
        assert (nearest_template_predict(x, rgb_t) == y).all()

    def test_complementary_rgb_never_resolves_members(self):
        spec = noiseless_spec(rgb_member_scale=0.0)
        train, _ = generate_synthetic(spec, 13)
        rgb_t = class_templates(spec, 13, "rgb")
        x, y = collect(train, "rgb")
        pred = nearest_template_predict(x, rgb_t)
        assert (pred // 2 == y // 2).all()
        assert (pred == y).mean() == pytest.approx(0.5)


class TestDeterminismAndShape:
    def test_fixed_seed_identical_datasets(self):
        spec = noiseless_spec(sigma=0.7)
        t1, v1 = generate_synthetic(spec, 5)
        t2, v2 = generate_synthetic(spec, 5)
        for a, b in ((t1, t2), (v1, v2)):
            assert a.ids == b.ids
            for head in HEADS:
                assert np.array_equal(a.labels[head], b.labels[head])
            for mod in ("rgb", "flow", "obj"):
                assert a.features[mod].tobytes() == b.features[mod].tobytes()

    def test_split_sizes_and_labels(self):
        spec = noiseless_spec()
        train, val = generate_synthetic(spec, 5)
        assert len(train) == 12 * 4 and len(val) == 12 * 2
        table = action_table(spec)
        for s in train:
            assert (s.verb, s.noun) == table[s.action]

    def test_feature_shapes(self):
        spec = SyntheticSpec(rgb_dim=16, flow_dim=8, obj_dim=4,
                             train_per_class=1, val_per_class=1)
        train, _ = generate_synthetic(spec, 0)
        s = train[0]
        assert s.features["rgb"].shape == (21, 16)
        assert s.features["flow"].shape == (21, 8)
        assert s.features["obj"].shape == (21, 4)
        assert s.features["rgb"].dtype == np.float32

    def test_presets(self):
        assert learnable_spec().rgb_member_scale == 1.0
        assert complementary_spec().rgb_member_scale == 0.0
        assert long_range_spec().sigma > learnable_spec().sigma
