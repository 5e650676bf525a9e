"""Exit heads, schedules, and placement against independent hand oracles."""

import itertools

import numpy as np
import pytest

from eevit.autograd import Tensor
from eevit.heads import (
    ExitPlacement,
    GlobalAggregationHead,
    KernelSchedule,
    LocalPerceptionHead,
    PlacementError,
    PooledLinearHead,
    WindowSchedule,
    build_exit_branches,
    default_head_kind,
    place_exits,
    pool_token_grid,
)
from eevit.layers import grid_to_tokens, tokens_to_grid
from eevit.vit import EncoderOutput, ViTConfig

from conftest import FD_TOL, grad_check


def _gelu_np(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def _bn_eval_np(x, eps=1e-8):
    # gain 1, bias 0, running stats at their init values (mean 0, var 1)
    return x / np.sqrt(1.0 + eps)


class TestSpatialMix:
    def test_zero_kernel_is_bitwise_identity(self, rng):
        head = LocalPerceptionHead(4, kernel=0, rng=rng)
        tokens = Tensor(rng.standard_normal((2, 4, 4)))
        assert head.spatial_mix(tokens) is tokens

    def test_uniform_kernel_preserves_constants(self, rng):
        head = LocalPerceptionHead(3, kernel=3, rng=rng)
        head.spatial.conv.weight.data = np.full((3, 3, 3), 1.0 / 9.0)
        head.spatial.conv.bias.data[...] = 0.0
        tokens = Tensor(np.full((1, 16, 3), 2.5))
        out = grid_to_tokens(head.spatial.conv(tokens_to_grid(tokens)))
        # interior cells average nine equal values; padded edges shrink the sum
        assert out.shape == (1, 16, 3)
        center = out.data[0].reshape(4, 4, 3)[1, 1]
        np.testing.assert_allclose(center, 2.5, rtol=1e-12)

    def test_hand_convolution_on_2x2_grid(self, rng):
        head = LocalPerceptionHead(1, kernel=3, rng=rng)
        kernel = np.arange(1.0, 10.0).reshape(3, 3, 1)
        head.spatial.conv.weight.data = kernel
        head.spatial.conv.bias.data[...] = 0.0
        grid = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 4, 1)
        out = head.spatial.conv(tokens_to_grid(Tensor(grid))).data.reshape(2, 2)
        # zero padding; kernel applied as cross-correlation
        padded = np.pad(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        expect = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                expect[i, j] = (padded[i : i + 3, j : j + 3] * kernel[:, :, 0]).sum()
        np.testing.assert_allclose(out, expect, rtol=1e-12)


class TestTokenGridPool:
    def test_sixteen_tokens_window_two(self, rng):
        out = pool_token_grid(Tensor(rng.standard_normal((3, 16, 5))), 2)
        assert out.shape == (3, 4, 5)

    def test_constant_preserved(self):
        out = pool_token_grid(Tensor(np.full((2, 16, 3), 1.5)), 3)
        np.testing.assert_allclose(out.data, 1.5, rtol=1e-15)

    def test_hand_window_means(self):
        values = np.arange(1.0, 17.0)
        x = Tensor(np.stack([values, values * 10], axis=-1)[None, :, :])
        out = pool_token_grid(x, 2)
        np.testing.assert_allclose(out.data[0, :, 0], [3.5, 5.5, 11.5, 13.5], rtol=1e-15)
        np.testing.assert_allclose(out.data[0, :, 1], [35, 55, 115, 135], rtol=1e-15)

    def test_window_below_two_rejected(self, rng):
        with pytest.raises(ValueError):
            pool_token_grid(Tensor(rng.standard_normal((1, 16, 2))), 1)

    def test_non_square_token_count_rejected(self, rng):
        with pytest.raises(ValueError):
            pool_token_grid(Tensor(rng.standard_normal((1, 12, 2))), 2)

    def test_global_mean_preserved_when_divisible(self, rng):
        x = rng.standard_normal((2, 16, 3))
        out = pool_token_grid(Tensor(x), 2)
        np.testing.assert_allclose(out.data.mean(axis=1), x.mean(axis=1), rtol=1e-12)


class TestLocalPerceptionHead:
    def test_cls_addition_is_exact(self, rng):
        head = LocalPerceptionHead(4, kernel=3, rng=rng)
        tokens = Tensor(rng.standard_normal((2, 16, 4)))
        cls = rng.standard_normal((2, 4))
        head.eval()
        out_zero, _ = head(tokens, Tensor(np.zeros((2, 4))))
        out_cls, _ = head(tokens, Tensor(cls))
        np.testing.assert_allclose(out_cls.data - out_zero.data, cls, rtol=1e-12)

    def test_matches_hand_evaluation(self, rng):
        # Full pipeline with hand-set weights, eval-mode norms at their
        # initial running statistics, D=4, N=4, k=3.
        d, n = 4, 4
        head = LocalPerceptionHead(d, kernel=3, rng=rng)
        head.eval()
        w1 = rng.standard_normal((d, d)) * 0.5
        b1 = rng.standard_normal(d) * 0.1
        wk = rng.standard_normal((3, 3, d)) * 0.5
        bk = rng.standard_normal(d) * 0.1
        w2 = rng.standard_normal((d, d)) * 0.5
        b2 = rng.standard_normal(d) * 0.1
        head.expand.conv.weight.data, head.expand.conv.bias.data = w1, b1
        head.spatial.conv.weight.data, head.spatial.conv.bias.data = wk, bk
        head.project.conv.weight.data, head.project.conv.bias.data = w2, b2
        tokens = rng.standard_normal((2, n, d))
        cls = rng.standard_normal((2, d))

        t = _bn_eval_np(_gelu_np(tokens @ w1 + b1))
        grid = t.reshape(2, 2, 2, d)
        padded = np.pad(grid, ((0, 0), (1, 1), (1, 1), (0, 0)))
        conv = np.zeros_like(grid)
        for u in range(3):
            for v in range(3):
                conv += padded[:, u : u + 2, v : v + 2, :] * wk[u, v]
        t = _bn_eval_np(_gelu_np(conv.reshape(2, n, d) + bk))
        fmap_expect = _bn_eval_np(_gelu_np(t @ w2 + b2))
        expect = fmap_expect.mean(axis=1) + cls

        out, fmap = head(Tensor(tokens), Tensor(cls))
        np.testing.assert_allclose(fmap.data, fmap_expect, rtol=1e-10)
        np.testing.assert_allclose(out.data, expect, rtol=1e-10)

    def test_output_width_is_dim(self, rng):
        head = LocalPerceptionHead(6, kernel=3, rng=rng)
        head.eval()
        out, _ = head(Tensor(rng.standard_normal((2, 16, 6))), Tensor(np.zeros((2, 6))))
        assert out.shape == (2, 6)


class TestGlobalAggregationHead:
    def test_single_token_trivial_attention(self, rng):
        head = GlobalAggregationHead(4, window=4, heads=1, rng=rng)
        tokens = Tensor(rng.standard_normal((2, 16, 4)))
        cls = rng.standard_normal((2, 4))
        out, fmap = head(tokens, Tensor(cls))
        weights = head.attn.weights(pool_token_grid(tokens, head.window))
        np.testing.assert_allclose(weights.data, 1.0, atol=1e-15)
        mean_token = tokens.data.mean(axis=1)
        expect = (mean_token @ head.attn.wv.weight.data + head.attn.wv.bias.data) \
            @ head.attn.wo.weight.data + head.attn.wo.bias.data + cls
        np.testing.assert_allclose(out.data, expect, rtol=1e-10)

    def test_identical_tokens_give_uniform_attention(self, rng):
        head = GlobalAggregationHead(4, window=2, heads=2, rng=rng)
        token = rng.standard_normal(4)
        tokens = Tensor(np.tile(token, (1, 16, 1)))
        weights = head.attn.weights(pool_token_grid(tokens, head.window))
        np.testing.assert_allclose(weights.data, 0.25, atol=1e-12)

    def test_matches_hand_evaluation(self, rng):
        # N=16, s=2, one head: window means, then plain scaled dot-product
        # attention with hand-set projections, mean pool, CLS addition.
        d = 4
        head = GlobalAggregationHead(d, window=2, heads=1, rng=rng)
        mats = {name: rng.standard_normal((d, d)) * 0.5 for name in "qkvo"}
        head.attn.wq.weight.data = mats["q"]
        head.attn.wk.weight.data = mats["k"]
        head.attn.wv.weight.data = mats["v"]
        head.attn.wo.weight.data = mats["o"]
        for lin in (head.attn.wq, head.attn.wk, head.attn.wv, head.attn.wo):
            lin.bias.data[...] = 0.0
        tokens = rng.standard_normal((2, 16, d))
        cls = rng.standard_normal((2, d))

        grid = tokens.reshape(2, 4, 4, d)
        pooled = grid.reshape(2, 2, 2, 2, 2, d).mean(axis=(2, 4)).reshape(2, 4, d)
        q, k, v = pooled @ mats["q"], pooled @ mats["k"], pooled @ mats["v"]
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        fmap_expect = (w @ v) @ mats["o"]
        expect = fmap_expect.mean(axis=1) + cls

        out, fmap = head(Tensor(tokens), Tensor(cls))
        np.testing.assert_allclose(fmap.data, fmap_expect, rtol=1e-10)
        np.testing.assert_allclose(out.data, expect, rtol=1e-10)


class TestPooledLinearHead:
    def test_identity_linear_gives_token_mean(self, rng):
        head = PooledLinearHead(4, rng)
        head.fc.weight.data = np.eye(4)
        head.fc.bias.data[...] = 0.0
        tokens = rng.standard_normal((2, 6, 4))
        out, _ = head(Tensor(tokens), Tensor(np.zeros((2, 4))))
        np.testing.assert_allclose(out.data, tokens.mean(axis=1), rtol=1e-12)

    def test_zero_weights_give_zero(self, rng):
        head = PooledLinearHead(4, rng)
        head.fc.weight.data[...] = 0.0
        head.fc.bias.data[...] = 0.0
        out, _ = head(Tensor(rng.standard_normal((2, 6, 4))), Tensor(np.zeros((2, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_pool_before_linear(self):
        head = PooledLinearHead(1, np.random.default_rng(0))
        head.fc.weight.data = np.array([[2.0]])
        head.fc.bias.data[...] = 0.0
        tokens = Tensor(np.array([[[1.0], [3.0]]]))
        out, _ = head(tokens, Tensor(np.zeros((1, 1))))
        assert out.data[0, 0] == pytest.approx(4.0)  # mean 2 then doubled


def _oracle_place(blocks, m):
    """Independent exhaustive search: minimize the variance of all segment sums."""
    layers_total = len(blocks)
    best, best_var = None, None
    for combo in itertools.combinations(range(1, layers_total), m):
        cuts = [0, *combo, layers_total]
        segments = [sum(blocks[cuts[i] : cuts[i + 1]]) for i in range(len(cuts) - 1)]
        mean = sum(segments) / len(segments)
        var = sum((s - mean) ** 2 for s in segments) / len(segments)
        if best_var is None or var < best_var - 1e-12:
            best, best_var = combo, var
    return best


class TestPlacement:
    def test_uniform_profile_matches_exhaustive_oracle(self):
        for layers_total in range(2, 13):
            for m in range(1, layers_total):
                expected = _oracle_place([1] * layers_total, m)
                assert place_exits(layers_total, m).positions == expected, (layers_total, m)

    def test_equal_sum_ties_take_the_shallowest_tuple(self):
        # Segments 1,1,2,2,2,2,2 and 2,2,2,2,2,1,1 tie.
        assert place_exits(12, 6).positions == (1, 2, 4, 6, 8, 10)
        assert _oracle_place([1] * 12, 6) == (1, 2, 4, 6, 8, 10)

    def test_deep_backbone_places_quickly(self):
        assert place_exits(24, 12).positions == (1, 2, *range(4, 23, 2))

    def test_single_exit_sits_at_mac_midpoint(self):
        assert place_exits(12, 1).positions == (6,)

    def test_explicit_override_accepted_verbatim(self):
        placement = ExitPlacement.with_default_kinds(12, (4, 6, 8, 10))
        assert placement.positions == (4, 6, 8, 10)
        assert placement.kinds == ("lph", "lph", "gah", "gah")

    def test_too_many_exits_rejected(self):
        with pytest.raises(PlacementError):
            place_exits(4, 4)

    def test_position_bounds(self):
        with pytest.raises(PlacementError):
            ExitPlacement.with_default_kinds(8, (2, 8))
        with pytest.raises(PlacementError):
            ExitPlacement.with_default_kinds(8, (4, 2))

    def test_default_kind_rule(self):
        assert default_head_kind(4, 8) == "lph"
        assert default_head_kind(5, 8) == "gah"
        placement = ExitPlacement.with_default_kinds(8, (2, 4, 6, 7))
        lph, gah = placement.lph_positions(), placement.gah_positions()
        assert max(lph) * 2 <= 8 < min(gah) * 2

    def test_kind_override(self):
        placement = ExitPlacement.with_default_kinds(8, (2, 6), ("mlp", "lph"))
        assert placement.kinds == ("mlp", "lph")

    def test_kinds_for_fewer_positions_rejected(self):
        with pytest.raises(PlacementError):
            ExitPlacement.with_default_kinds(8, (2, 6), ("lph",))


class TestSchedules:
    def test_documented_default_kernels(self):
        assert KernelSchedule.linear([4, 6], 12).kernels == {4: 5, 6: 3}
        assert KernelSchedule.linear([2, 4], 8).kernels == {2: 5, 4: 3}

    def test_kernel_zero_bypass_reachable(self):
        kernels = KernelSchedule.linear([2, 6], 12).kernels
        assert kernels[2] == 5 and kernels[6] == 0

    def test_kernel_monotone_non_increasing(self, rng):
        for _ in range(20):
            layers_total = int(rng.integers(6, 16))
            count = int(rng.integers(1, max(2, layers_total // 2)))
            positions = sorted(rng.choice(np.arange(1, layers_total // 2 + 1),
                                          size=min(count, layers_total // 2), replace=False))
            sched = KernelSchedule.linear([int(p) for p in positions], layers_total)
            sizes = [sched.kernel_for(p) for p in positions]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert all(k == 0 or (k >= 3 and k % 2 == 1) for k in sizes)

    def test_window_monotone_non_decreasing_with_floor_two(self, rng):
        for _ in range(20):
            layers_total = int(rng.integers(6, 16))
            low = layers_total // 2 + 1
            if low >= layers_total:
                continue
            choices = np.arange(low, layers_total)
            count = int(rng.integers(1, len(choices) + 1))
            positions = sorted(rng.choice(choices, size=count, replace=False))
            sched = WindowSchedule.linear([int(p) for p in positions], layers_total)
            sizes = [sched.window_for(p) for p in positions]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))
            assert all(s >= 2 for s in sizes)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            KernelSchedule({2: 4})  # even kernel
        with pytest.raises(ValueError):
            KernelSchedule({2: 3, 4: 5})  # increasing
        with pytest.raises(ValueError):
            WindowSchedule({6: 1})  # below the floor
        with pytest.raises(ValueError):
            WindowSchedule({6: 4, 7: 2})  # decreasing


class TestExitBranch:
    def test_branches_from_config(self, rng):
        cfg = ViTConfig()
        placement = ExitPlacement.with_default_kinds(8, (2, 4, 6, 7))
        kernels = KernelSchedule.linear(placement.lph_positions(), 8)
        windows = WindowSchedule.linear(placement.gah_positions(), 8)
        branches = build_exit_branches(cfg, placement, kernels, windows, rng)
        tokens = Tensor(rng.standard_normal((2, 17, 64)))
        for branch in branches:
            branch.eval()
            logits, vec, fmap = branch(EncoderOutput(tokens, branch.position))
            assert logits.shape == (2, 10)
            assert vec.shape == (2, 64)
            assert fmap.shape[2] == 64

    def test_wrong_layer_rejected(self, rng):
        cfg = ViTConfig()
        placement = ExitPlacement.with_default_kinds(8, (2,))
        branches = build_exit_branches(
            cfg, placement, KernelSchedule.linear([2], 8), WindowSchedule({}), rng
        )
        with pytest.raises(ValueError):
            branches[0](EncoderOutput(Tensor(rng.standard_normal((1, 17, 64))), 3))

    def test_head_gradients(self, rng):
        for kind, head_cls, kwargs in [
            ("lph", LocalPerceptionHead, {"kernel": 3}),
            ("gah", GlobalAggregationHead, {"window": 2, "heads": 2}),
            ("mlp", PooledLinearHead, {}),
        ]:
            head = head_cls(4, rng=rng, **kwargs)
            head.train()
            tokens = Tensor(rng.standard_normal((3, 16, 4)), requires_grad=True)
            cls = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            err = grad_check(lambda: (head(tokens, cls)[0] ** 2).sum(), [tokens, cls])
            assert err < FD_TOL, kind
