"""Backbone: patch embedding, attention, prefix semantics, classifier."""

import numpy as np
import pytest

from eevit import autograd as ag
from eevit.autograd import Tensor
from eevit.vit import MultiHeadSelfAttention, ViTConfig, ViTModel, WrongLayerError

from conftest import FD_TOL, sampled_grad_check

TINY = ViTConfig(image_side=16, channels=3, patch_side=8, layers=3, dim=8, heads=2, mlp_ratio=2.0, num_classes=5)


@pytest.fixture
def tiny_model(rng):
    return ViTModel(TINY, rng)


class TestConfig:
    def test_token_counts(self):
        assert ViTConfig(image_side=32, patch_side=8).num_patches == 16
        cfg = ViTConfig(image_side=224, channels=3, patch_side=16, layers=12, dim=768, heads=12)
        assert cfg.num_patches == 196
        assert cfg.seq_len == 197

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ViTConfig(image_side=30, patch_side=8)
        with pytest.raises(ValueError):
            ViTConfig(dim=65, heads=4)


class TestPatchify:
    def test_shapes(self, tiny_model, rng):
        x = Tensor(rng.standard_normal((2, 3, 16, 16)))
        patches = tiny_model.patch_embed.patchify(x)
        assert patches.shape == (2, 4, 8)
        assert tiny_model.embed(x).tokens.shape == (2, 5, 8)

    def test_zero_image_zero_weights(self, tiny_model):
        tiny_model.patch_embed.proj.weight.data[...] = 0.0
        patches = tiny_model.patch_embed.patchify(Tensor(np.zeros((1, 3, 16, 16))))
        np.testing.assert_array_equal(patches.data, np.zeros((1, 4, 8)))

    def test_dimension_mismatch(self, tiny_model, rng):
        with pytest.raises(ValueError):
            tiny_model.patch_embed.patchify(Tensor(rng.standard_normal((1, 3, 8, 8))))


class TestAttention:
    def test_single_token_attention_is_one(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng)
        x = Tensor(rng.standard_normal((2, 1, 8)))
        out = attn(x)
        np.testing.assert_allclose(attn.weights(x).data, 1.0, atol=1e-15)
        # with T=1 the output is x W_V W_O plus biases
        expect = ag.matmul(ag.matmul(x, attn.wv.weight) + attn.wv.bias, attn.wo.weight) + attn.wo.bias
        np.testing.assert_allclose(out.data, expect.data, rtol=1e-12)

    def test_identical_tokens_give_uniform_rows(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng)
        token = rng.standard_normal(8)
        x = Tensor(np.tile(token, (1, 5, 1)))
        np.testing.assert_allclose(attn.weights(x).data, 1.0 / 5.0, atol=1e-12)

    def test_hand_evaluated_two_tokens(self, rng):
        # Single head, D=2: compare against a direct numpy evaluation of
        # softmax(q k^T / sqrt(d)) v followed by the output projection.
        attn = MultiHeadSelfAttention(2, 1, rng)
        wq, wk, wv, wo = (np.array([[0.5, -0.2], [0.1, 0.3]]),
                          np.array([[0.2, 0.4], [-0.3, 0.1]]),
                          np.array([[1.0, 0.0], [0.0, -1.0]]),
                          np.array([[0.7, 0.2], [-0.1, 0.4]]))
        attn.wq.weight.data, attn.wk.weight.data = wq, wk
        attn.wv.weight.data, attn.wo.weight.data = wv, wo
        for lin in (attn.wq, attn.wk, attn.wv, attn.wo):
            lin.bias.data[...] = 0.0
        x = np.array([[[1.0, 2.0], [-1.0, 0.5]]])
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        expect = (weights @ v) @ wo
        out = attn(Tensor(x))
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_weights_are_the_probabilities_the_forward_mixes(self, rng, monkeypatch):
        """``weights`` is bitwise the node's probabilities and the composed ops' softmax."""
        attn = MultiHeadSelfAttention(8, 2, rng)
        x = Tensor(rng.standard_normal((3, 5, 8)), requires_grad=True)
        mixed, probs = [], ag.attention_probs

        def spy(*args):
            result = probs(*args)
            mixed.append(result[2])
            return result

        monkeypatch.setattr(ag, "attention_probs", spy)
        attn(x)
        (used,) = mixed
        np.testing.assert_array_equal(attn.weights(x).data, used)

        def split(lin):
            return ag.linear(x, lin.weight, lin.bias).reshape((3, 5, 2, 4)).transpose((0, 2, 1, 3))

        scores = ag.matmul(split(attn.wq), split(attn.wk).transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(4))
        np.testing.assert_array_equal(used, ag.softmax(scores, axis=-1).data)

    def test_rows_sum_to_one_every_layer(self, tiny_model, rng):
        tokens = tiny_model.embed(Tensor(rng.standard_normal((2, 3, 16, 16)))).tokens
        for block in tiny_model.blocks:
            weights = block.attn.weights(block.norm1(tokens))
            np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-9)
            tokens = block(tokens)


class TestPrefixSemantics:
    def test_full_equals_continue_bitwise(self, tiny_model, rng):
        x = Tensor(rng.standard_normal((2, 3, 16, 16)))
        full = tiny_model.forward_to_layer(x, TINY.layers)
        step = tiny_model.forward_to_layer(x, 1)
        resumed = tiny_model.continue_forward(step, TINY.layers)
        np.testing.assert_array_equal(full.tokens.data, resumed.tokens.data)

    def test_taps_at_multiple_layers(self, rng):
        cfg = ViTConfig(image_side=16, channels=3, patch_side=8, layers=12, dim=8, heads=2, num_classes=3)
        model = ViTModel(cfg, rng)
        x = Tensor(rng.standard_normal((1, 3, 16, 16)))
        state = model.embed(x)
        outs = []
        for tap in (4, 6, 8, 10):
            state = model.continue_forward(state, tap)
            outs.append(state)
        assert [o.layer_index for o in outs] == [4, 6, 8, 10]

    def test_out_of_range_layer(self, tiny_model, rng):
        x = Tensor(rng.standard_normal((1, 3, 16, 16)))
        with pytest.raises(ValueError):
            tiny_model.forward_to_layer(x, TINY.layers + 1)
        with pytest.raises(ValueError):
            tiny_model.forward_to_layer(x, 0)

    def test_zeroed_blocks_are_identity(self, tiny_model, rng):
        for block in tiny_model.blocks:
            for _, p in block.named_parameters():
                p.data[...] = 0.0
        x = Tensor(rng.standard_normal((2, 3, 16, 16)))
        embedded = tiny_model.embed(x)
        for m in range(1, TINY.layers + 1):
            out = tiny_model.continue_forward(embedded, m)
            np.testing.assert_array_equal(out.tokens.data, embedded.tokens.data)


class TestFinalClassifier:
    def test_zero_weights_give_uniform_softmax(self, tiny_model, rng):
        tiny_model.classifier.weight.data[...] = 0.0
        tiny_model.classifier.bias.data[...] = 0.0
        logits = tiny_model.forward(Tensor(rng.standard_normal((2, 3, 16, 16))))
        np.testing.assert_array_equal(logits.data, np.zeros((2, 5)))
        np.testing.assert_allclose(ag.softmax(logits).data, 0.2, atol=1e-15)

    def test_logit_width_matches_class_count(self, rng):
        cfg = ViTConfig(image_side=16, channels=3, patch_side=8, layers=2, dim=8, heads=2, num_classes=100)
        model = ViTModel(cfg, rng)
        logits = model.forward(Tensor(rng.standard_normal((2, 3, 16, 16))))
        assert logits.shape == (2, 100)

    def test_wrong_layer_rejected(self, tiny_model, rng):
        state = tiny_model.forward_to_layer(Tensor(rng.standard_normal((1, 3, 16, 16))), 1)
        with pytest.raises(WrongLayerError):
            tiny_model.final_classifier(state)

    def test_distinct_cls_vectors_give_distinct_logits(self, tiny_model, rng):
        x = Tensor(rng.standard_normal((2, 3, 16, 16)))
        logits = tiny_model.forward(x)
        assert not np.allclose(logits.data[0], logits.data[1])


def test_backbone_gradients_match_finite_differences(rng):
    model = ViTModel(TINY, rng)
    x = Tensor(rng.standard_normal((2, 3, 16, 16)))
    labels = rng.integers(0, 5, 2)
    from eevit.losses import cross_entropy

    params = model.parameters()
    err = sampled_grad_check(lambda: cross_entropy(model.forward(x), labels), params, rng, samples=10)
    assert err < FD_TOL
