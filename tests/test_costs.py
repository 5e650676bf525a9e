"""Analytic MAC formulas against independent re-derivations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eevit.costs import (
    EmptyHistogramError,
    ExitHistogram,
    InconsistentHistogramError,
    expected_macs,
    mac_conv,
    mac_gah,
    mac_lph,
    mac_mhsa,
    mac_pooled_linear,
    model_macs,
    path_macs,
    pooled_tokens_exact,
    ratio_checks,
    speedup,
)
from eevit.heads import ExitPlacement, KernelSchedule, WindowSchedule
from eevit.vit import ViTConfig


class TestFormulas:
    def test_conv_direct_values(self):
        assert mac_conv(4, 2, 3) == 144
        assert mac_conv(7, 5, 1) == 7 * 25
        assert mac_conv(196, 768, 3) == 1_040_449_536

    def test_mhsa_direct_values(self):
        assert mac_mhsa(1, 2) == 20
        assert mac_mhsa(197, 768) == 4 * 197 * 768**2 + 2 * 197**2 * 768
        assert mac_mhsa(3, 10) == 4 * 3 * 100 + 2 * 9 * 10

    def test_mhsa_first_term_quadruples_with_dim(self):
        base = mac_mhsa(5, 8)
        doubled = mac_mhsa(5, 16)
        assert doubled - 2 * 25 * 16 == 4 * (base - 2 * 25 * 8)

    def test_lph_values_and_bypass(self):
        assert mac_lph(16, 4, 3) == 1088
        assert mac_lph(10, 6, 0) == 2 * 10 * 36

    def test_gah_divisible_case(self):
        assert mac_gah(16, 4, 2) == 384

    def test_pooled_token_count_formula(self):
        assert pooled_tokens_exact(16, 2) == 4
        assert pooled_tokens_exact(16, 3) == 4
        assert pooled_tokens_exact(16, 4) == 1
        assert pooled_tokens_exact(196, 2) == 49

    def test_gah_uses_true_pooled_count(self):
        # 4x4 grid with window 3 pools to a 2x2 grid, not 16/9 tokens
        assert pooled_tokens_exact(16, 3) == 4
        assert mac_gah(16, 4, 3) == mac_mhsa(4, 4)

    @given(st.integers(1, 1024), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_pooled_count_matches_math_ceil(self, n, s):
        expected = math.ceil(math.ceil(math.sqrt(n)) / s) ** 2
        assert pooled_tokens_exact(n, s) == expected


class TestRatios:
    def test_paper_scale_values(self):
        lph_ratio, _ = ratio_checks(196, 768, 3, 2)
        assert lph_ratio == pytest.approx(1545 / 6912, rel=1e-12)
        assert lph_ratio == pytest.approx(0.2235, abs=5e-5)
        _, gah_ratio = ratio_checks(196, 768, 3, 2)
        assert gah_ratio == pytest.approx(1585 / 1732, rel=1e-12)
        assert gah_ratio == pytest.approx(0.9151, abs=5e-5)

    def test_large_window_limit(self):
        _, ratio = ratio_checks(196, 768, 3, 1000)
        assert ratio == pytest.approx(2 * 768 / (2 * 768 + 196), rel=1e-6)

    @given(st.integers(3, 512), st.integers(2, 9), st.integers(2, 6), st.integers(1, 1024))
    @settings(max_examples=200, deadline=None)
    def test_both_below_one_in_valid_region(self, d, k, s, n):
        lph_ratio, gah_ratio = ratio_checks(n, d, k, s)
        assert lph_ratio < 1.0
        assert gah_ratio < 1.0

    def test_precondition_violation_reported(self):
        with pytest.raises(ValueError):
            ratio_checks(16, 768, 1, 2)
        with pytest.raises(ValueError):
            ratio_checks(16, 2, 3, 2)
        with pytest.raises(ValueError):
            ratio_checks(16, 768, 3, 1)


class TestHeadsCheaperThanStandard:
    @given(st.integers(3, 512), st.integers(2, 9), st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_lph_below_standard_conv(self, d, k, n):
        assert mac_lph(n, d, k) < mac_conv(n, d, k)

    @given(st.integers(2, 512), st.integers(2, 6), st.integers(2, 1024))
    @settings(max_examples=200, deadline=None)
    def test_gah_below_standard_mhsa(self, d, s, n):
        # pooling a >1-token grid always removes tokens, so attention shrinks
        assert mac_gah(n, d, s) < mac_mhsa(n, d)


class TestModelMacs:
    def test_vit_b16_within_five_percent_of_published(self):
        cfg = ViTConfig(image_side=224, channels=3, patch_side=16, layers=12,
                        dim=768, heads=12, mlp_ratio=4.0, num_classes=100)
        total = model_macs(cfg).backbone_total()
        assert abs(total - 16.93e9) / 16.93e9 < 0.05

    def test_tiny_config_equals_hand_sum(self):
        cfg = ViTConfig(image_side=8, channels=1, patch_side=4, layers=2,
                        dim=8, heads=2, mlp_ratio=4.0, num_classes=3)
        profile = model_macs(cfg)
        n, t, d = 4, 5, 8
        patch = n * d * (16 * 1)
        block = (4 * t * d * d + 2 * t * t * d) + 2 * t * d * d * 4
        assert profile.patch_embed == patch
        assert profile.per_block == (block, block)
        assert profile.backbone_total() == patch + 2 * block + d * 3

    def test_no_exits_contribute_zero_head_macs(self):
        profile = model_macs(ViTConfig())
        assert profile.heads_total() == 0

    def test_heads_accounted_per_position(self):
        cfg = ViTConfig()
        placement = ExitPlacement.with_default_kinds(8, (2, 4, 6, 7))
        kernels = KernelSchedule.linear(placement.lph_positions(), 8)
        windows = WindowSchedule.linear(placement.gah_positions(), 8)
        profile = model_macs(cfg, placement, kernels, windows)
        n, d = 16, 64
        assert profile.head_by_position[2] == mac_lph(n, d, kernels.kernel_for(2))
        assert profile.head_by_position[6] == mac_gah(n, d, windows.window_for(6))
        assert profile.classifier_by_position[4] == d * 10

    def test_mlp_head_cost(self):
        cfg = ViTConfig()
        placement = ExitPlacement.with_default_kinds(8, (3,), ("mlp",))
        profile = model_macs(cfg, placement, None, None)
        assert profile.head_by_position[3] == mac_pooled_linear(64) == 64 * 64


def _oracle_speedup(counts):
    layers_total = len(counts)
    num = sum(layers_total * m for m in counts)
    den = sum((i + 1) * m for i, m in enumerate(counts))
    return num / den


class TestSpeedup:
    def test_all_exit_at_final_layer(self):
        hist = ExitHistogram.from_layers([12] * 7, 12)
        assert speedup(hist) == 1.0

    def test_half_at_six_half_at_twelve(self):
        hist = ExitHistogram.from_layers([6] * 50 + [12] * 50, 12)
        assert speedup(hist) == pytest.approx(1200 / 900, rel=1e-15)

    def test_single_sample_at_layer_six(self):
        assert speedup(ExitHistogram.from_layers([6], 12)) == 2.0

    def test_all_at_first_layer_gives_depth(self):
        hist = ExitHistogram.from_layers([1] * 3, 12)
        assert speedup(hist) == 12.0

    def test_random_histograms_match_bruteforce(self, rng):
        for _ in range(100):
            layers_total = int(rng.integers(2, 16))
            counts = rng.integers(0, 50, size=layers_total)
            if counts.sum() == 0:
                counts[0] = 1
            hist = ExitHistogram(tuple(int(c) for c in counts))
            value = speedup(hist)
            assert value == pytest.approx(_oracle_speedup(counts), rel=1e-12)
            assert 1.0 <= value <= layers_total

    @given(st.integers(0, 2**31 - 1), st.integers(2, 50))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, seed, factor):
        r = np.random.default_rng(seed)
        counts = r.integers(0, 20, size=8)
        if counts.sum() == 0:
            counts[3] = 1
        a = speedup(ExitHistogram(tuple(int(c) for c in counts)))
        b = speedup(ExitHistogram(tuple(int(c) * factor for c in counts)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_histogram_rejected(self):
        with pytest.raises(EmptyHistogramError):
            speedup(ExitHistogram((0, 0, 0)))


def _default_profile():
    cfg = ViTConfig()
    placement = ExitPlacement.with_default_kinds(8, (2, 4, 6, 7))
    kernels = KernelSchedule.linear(placement.lph_positions(), 8)
    windows = WindowSchedule.linear(placement.gah_positions(), 8)
    return model_macs(cfg, placement, kernels, windows), placement


class TestExpectedMacs:
    def test_all_exit_at_final_includes_every_overhead(self):
        profile, placement = _default_profile()
        hist = ExitHistogram.from_layers([8] * 5, 8)
        assert expected_macs(profile, hist, placement) == profile.full_total()

    def test_single_sample_at_first_exit(self):
        profile, placement = _default_profile()
        hist = ExitHistogram.from_layers([2], 8)
        expected = (
            profile.patch_embed
            + sum(profile.per_block[:2])
            + profile.head_by_position[2]
            + profile.classifier_by_position[2]
        )
        assert expected_macs(profile, hist, placement) == expected

    def test_even_split_is_mean_of_paths(self):
        profile, placement = _default_profile()
        hist = ExitHistogram.from_layers([4] * 10 + [8] * 10, 8)
        mean_paths = (path_macs(profile, placement, 4) + path_macs(profile, placement, 8)) / 2
        assert expected_macs(profile, hist, placement) == mean_paths

    def test_never_exceeds_full_model_with_heads(self, rng):
        profile, placement = _default_profile()
        for _ in range(20):
            layers = rng.choice([2, 4, 6, 7, 8], size=30)
            hist = ExitHistogram.from_layers([int(x) for x in layers], 8)
            assert expected_macs(profile, hist, placement) <= profile.full_total()

    def test_inconsistent_histogram_rejected(self):
        profile, placement = _default_profile()
        hist = ExitHistogram.from_layers([3], 8)  # layer 3 is not an exit
        with pytest.raises(InconsistentHistogramError):
            expected_macs(profile, hist, placement)
