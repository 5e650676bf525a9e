"""Distillation losses: identities, invariances, and brute-force oracles."""

import math

import numpy as np
import pytest

from eevit import autograd as ag
from eevit.autograd import Tensor
from eevit.distill import (
    AlignmentError,
    DistillationParts,
    MissingExitError,
    align_teacher,
    aligned_teachers,
    heterogeneous_loss,
    heterogeneous_ordinals,
    homogeneous_gah_loss,
    homogeneous_lph_loss,
    kd_loss,
    prediction_loss,
    total_loss,
)
from eevit.layers import BatchNorm, tokens_to_grid
from eevit.losses import cross_entropy

from conftest import FD_TOL, grad_check


def _softmax_np(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


_SCALE = 1.0 / np.sqrt(1.0 + BatchNorm.eps)


def _teacher_oracle(x, target):
    """The teacher written out: per-tap window sum, GELU, scale, channel softmax."""
    b, n, d = x.shape
    side, t = math.isqrt(n), math.isqrt(target)
    s = side // t
    grid = x.reshape(b, side, side, d)
    pooled = np.zeros((b, t, t, d))
    for u in range(s):
        for v in range(s):
            pooled += grid[:, u::s, v::s] * (1.0 / (s * s))
    inner = (pooled * pooled * pooled * ag._GELU_CUBIC + pooled) * ag._SQRT_2_OVER_PI
    act = pooled * 0.5 * (np.tanh(inner) + 1.0)
    return _softmax_np((act * _SCALE).reshape(b, target, d))


class TestAlignTeacher:
    @pytest.mark.parametrize(
        "n,target,d", [(16, 16, 4), (16, 4, 4), (16, 1, 4), (36, 4, 3), (64, 16, 2), (81, 9, 5)]
    )
    def test_matches_per_tap_oracle(self, rng, n, target, d):
        x = rng.standard_normal((3, n, d)) * 2
        np.testing.assert_array_equal(align_teacher(x, target), _teacher_oracle(x, target))

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_matches_avg_pool_within_rounding(self, rng, stride):
        x = rng.standard_normal((2, 64, 6))
        pooled = ag.avg_pool2d(tokens_to_grid(Tensor(x)), stride).data
        expected = ag.softmax_array(ag.gelu(pooled).data.reshape(2, -1, 6) * _SCALE)
        got = align_teacher(x, 64 // stride**2)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_stride_one_leaves_the_tokens_unpooled(self, rng):
        x = rng.standard_normal((2, 16, 3))
        expected = ag.softmax_array(ag.gelu(x).data * _SCALE)
        np.testing.assert_array_equal(align_teacher(x, 16), expected)

    def test_sixteen_to_four_pools_two_by_two_windows(self, rng):
        x = rng.standard_normal((1, 16, 4))
        y = x.copy()
        y[0, 5] += 10.0  # token (1, 1) lies in the first 2 x 2 window
        moved = align_teacher(x, 4) != align_teacher(y, 4)
        assert moved.shape == (1, 4, 4)
        assert moved[0, 0].all() and not moved[0, 1:].any()

    def test_constant_input_gives_constant_rows(self):
        x = np.empty((1, 16, 2))
        x[..., 0], x[..., 1] = 3.0, -1.0
        out = align_teacher(x, 4)
        np.testing.assert_allclose(out, np.broadcast_to(out[0, 0], out.shape), rtol=1e-12)

    def test_impossible_reduction_rejected(self):
        with pytest.raises(AlignmentError):
            align_teacher(np.zeros((1, 16, 2)), 9)
        with pytest.raises(AlignmentError):
            align_teacher(np.zeros((1, 12, 2)), 4)
        with pytest.raises(AlignmentError):
            align_teacher(np.zeros((1, 16, 2)), 0)


class TestHeterogeneousLoss:
    def test_ordinal_set(self):
        assert heterogeneous_ordinals(4) == (1, 2, 3, 4)
        assert heterogeneous_ordinals(2) == (1, 2)
        assert heterogeneous_ordinals(8) == (1, 4, 5, 8)
        with pytest.raises(MissingExitError):
            heterogeneous_ordinals(3)

    def _setup(self, rng, batch=2, n=16, d=4):
        targets = {m: n for m in (1, 2, 3, 4)}
        final = rng.standard_normal((batch, n, d))
        return targets, final

    def test_zero_when_features_match_aligned_teacher(self, rng):
        targets, final = self._setup(rng)
        teachers = aligned_teachers(targets, final)
        features = [Tensor(np.log(teachers[m])) for m in (1, 2, 3, 4)]
        loss = heterogeneous_loss(features, teachers)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_one_mismatch_contributes_one_quarter(self, rng):
        targets, final = self._setup(rng)
        teachers = aligned_teachers(targets, final)
        features = [Tensor(np.log(teachers[m])) for m in (1, 2, 3, 4)]
        features[2] = Tensor(rng.standard_normal(features[2].shape))
        loss = heterogeneous_loss(features, teachers)

        teacher_probs = teachers[3]
        student_probs = _softmax_np(features[2].data)
        per_token = (teacher_probs * (np.log(teacher_probs) - np.log(student_probs))).sum(-1)
        assert loss.item() == pytest.approx(0.25 * per_token.mean(), rel=1e-10)

    def test_matches_per_token_bruteforce(self, rng):
        targets, final = self._setup(rng, batch=3)
        features = [Tensor(rng.standard_normal((3, 16, 4))) for _ in range(4)]
        loss = heterogeneous_loss(features, aligned_teachers(targets, final))

        acc = 0.0
        for m in (1, 2, 3, 4):
            teacher = _teacher_oracle(final, targets[m])
            student = _softmax_np(features[m - 1].data)
            acc += (teacher * (np.log(teacher) - np.log(student))).sum(-1).mean()
        assert loss.item() == pytest.approx(acc / 4.0, rel=1e-10)

    def test_missing_teacher_rejected(self, rng):
        targets, final = self._setup(rng)
        del targets[3]
        features = [Tensor(rng.standard_normal((2, 16, 4))) for _ in range(4)]
        with pytest.raises(MissingExitError):
            heterogeneous_loss(features, aligned_teachers(targets, final))


class TestHomogeneousLph:
    def test_zero_at_equality(self, rng):
        f = Tensor(rng.standard_normal((2, 16, 4)))
        assert homogeneous_lph_loss([f, Tensor(f.data.copy())]).item() == 0.0

    def test_single_term_for_two_exits(self, rng):
        a = Tensor(rng.standard_normal((2, 16, 4)))
        b = Tensor(rng.standard_normal((2, 16, 4)))
        loss = homogeneous_lph_loss([a, b])
        assert loss.item() == pytest.approx(((a.data - b.data) ** 2).mean(), rel=1e-12)

    def test_teacher_receives_no_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 16, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 16, 4)), requires_grad=True)
        ag.backward(homogeneous_lph_loss([a, b]))
        assert a.grad is not None
        assert b.grad is None

    def test_fewer_than_two_warns_and_returns_zero(self, rng):
        with pytest.warns(UserWarning) as seen:
            loss = homogeneous_lph_loss([Tensor(rng.standard_normal((2, 4, 4)))])
        assert loss.item() == 0.0
        assert seen[0].filename == __file__


class TestHomogeneousGah:
    def test_zero_at_equality(self, rng):
        f = Tensor(rng.standard_normal((2, 4, 5)))
        assert homogeneous_gah_loss([f, Tensor(f.data.copy())]).item() == 0.0

    def test_row_permutation_invariance_exact(self, rng):
        student = Tensor(rng.standard_normal((2, 4, 5)))
        teacher = Tensor(rng.standard_normal((2, 1, 5)))
        base = homogeneous_gah_loss([student, teacher]).item()
        flat = student.data.reshape(8, 5)
        perm = rng.permutation(8)
        permuted = Tensor(flat[perm].reshape(2, 4, 5))
        assert homogeneous_gah_loss([permuted, teacher]).item() == base

    def test_permuted_copy_of_teacher_gives_zero(self, rng):
        teacher = Tensor(rng.standard_normal((2, 4, 5)))
        flat = teacher.data.reshape(8, 5)
        student = Tensor(flat[rng.permutation(8)].reshape(2, 4, 5))
        assert homogeneous_gah_loss([student, teacher]).item() == pytest.approx(0.0, abs=1e-20)

    def test_matches_bruteforce_gram(self, rng):
        a = Tensor(rng.standard_normal((3, 4, 5)))
        b = Tensor(rng.standard_normal((3, 2, 5)))
        loss = homogeneous_gah_loss([a, b])
        ga = a.data.reshape(-1, 5).T @ a.data.reshape(-1, 5)
        gb = b.data.reshape(-1, 5).T @ b.data.reshape(-1, 5)
        assert ga.shape == (5, 5) and gb.shape == (5, 5)
        assert loss.item() == pytest.approx(((ga - gb) ** 2).mean(), rel=1e-12)

    def test_teacher_gram_detached(self, rng):
        a = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        ag.backward(homogeneous_gah_loss([a, b]))
        assert a.grad is not None and b.grad is None


class TestKdLoss:
    def test_gamma_zero_equals_cross_entropy_exactly(self, rng):
        student = Tensor(rng.standard_normal((4, 6)))
        teacher = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, 4)
        kd = kd_loss(student, teacher, labels, gamma=0.0, temperature=4.0)
        ce = cross_entropy(student, labels)
        assert kd.item() == ce.item()

    def test_gamma_one_zero_when_student_equals_teacher(self, rng):
        logits = rng.standard_normal((3, 5))
        kd = kd_loss(Tensor(logits.copy()), logits, rng.integers(0, 5, 3), 1.0, 2.0)
        assert kd.item() == pytest.approx(0.0, abs=1e-13)

    def test_high_temperature_kills_kl_term(self, rng):
        student = Tensor(rng.standard_normal((3, 5)) * 2)
        teacher = rng.standard_normal((3, 5)) * 2
        labels = rng.integers(0, 5, 3)
        ce = cross_entropy(student, labels).item()
        kd = kd_loss(student, teacher, labels, gamma=0.5, temperature=1e6).item()
        assert kd == pytest.approx(0.5 * ce, abs=1e-9)

    def test_invalid_hyperparameters(self, rng):
        logits = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            kd_loss(logits, logits.data, np.zeros(2, dtype=int), gamma=1.5, temperature=1.0)
        with pytest.raises(ValueError):
            kd_loss(logits, logits.data, np.zeros(2, dtype=int), gamma=0.5, temperature=0.0)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, rng, temperature):
        logits = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError, match="temperature"):
            kd_loss(logits, logits.data, np.zeros(2, dtype=int), gamma=0.5, temperature=temperature)

    def test_gradient_flows_to_student_only(self, rng):
        student = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        teacher = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        labels = rng.integers(0, 5, 3)
        ag.backward(kd_loss(student, teacher, labels, 0.5, 4.0))
        assert student.grad is not None and teacher.grad is None


class TestPredictionLoss:
    def test_zero_when_both_match_final_at_gamma_one(self, rng):
        final = rng.standard_normal((3, 5))
        logits = [Tensor(rng.standard_normal((3, 5))) for _ in range(4)]
        logits[1] = Tensor(final.copy())
        logits[3] = Tensor(final.copy())
        labels = rng.integers(0, 5, 3)
        loss = prediction_loss(logits, final, labels, gamma=1.0, temperature=3.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-13)

    def test_gamma_zero_is_sum_of_two_cross_entropies(self, rng):
        final = rng.standard_normal((3, 5))
        logits = [Tensor(rng.standard_normal((3, 5))) for _ in range(4)]
        labels = rng.integers(0, 5, 3)
        loss = prediction_loss(logits, final, labels, gamma=0.0, temperature=4.0)
        expect = cross_entropy(logits[1], labels).item() + cross_entropy(logits[3], labels).item()
        assert loss.item() == pytest.approx(expect, rel=1e-12)

    def test_matches_composition_of_kd_calls(self, rng):
        final = rng.standard_normal((3, 5))
        logits = [Tensor(rng.standard_normal((3, 5))) for _ in range(4)]
        labels = rng.integers(0, 5, 3)
        loss = prediction_loss(logits, final, labels, gamma=0.3, temperature=2.5)
        expect = (
            kd_loss(logits[1], final, labels, 0.3, 2.5).item()
            + kd_loss(logits[3], final, labels, 0.3, 2.5).item()
        )
        assert loss.item() == pytest.approx(expect, rel=1e-12)

    def test_odd_exit_count_rejected(self, rng):
        logits = [Tensor(rng.standard_normal((2, 3))) for _ in range(3)]
        with pytest.raises(MissingExitError):
            prediction_loss(logits, rng.standard_normal((2, 3)), np.zeros(2, dtype=int), 0.5, 2.0)


class TestTotalLoss:
    def _parts(self, hete, lph, gah, pred):
        return DistillationParts(Tensor(hete), Tensor(lph), Tensor(gah), Tensor(pred))

    def test_zero_weights_leave_prediction_only(self):
        parts = self._parts(3.0, 1.0, 2.0, 0.7)
        assert total_loss(parts, 0.0, 0.0).item() == pytest.approx(0.7)

    def test_all_zero_parts(self):
        assert total_loss(self._parts(0, 0, 0, 0), 1.0, 1.0).item() == 0.0

    def test_weighted_arithmetic(self):
        parts = self._parts(0.5, 0.25, 0.0, 1.0)
        assert total_loss(parts, 1.0, 2.0).item() == pytest.approx(0.5 + 0.5 + 1.0)

    def test_nonnegative_for_real_losses(self, rng):
        f = [Tensor(rng.standard_normal((2, 4, 4))) for _ in range(2)]
        parts = DistillationParts(
            Tensor(0.0),
            homogeneous_lph_loss(f),
            homogeneous_gah_loss(f),
            Tensor(0.0),
        )
        assert total_loss(parts, 0.1, 0.1).item() >= 0.0


def test_total_loss_gradient_matches_finite_differences(rng):
    final = Tensor(rng.standard_normal((2, 16, 4)))
    targets = {m: 16 for m in (1, 2, 3, 4)}
    features = [Tensor(rng.standard_normal((2, 16, 4)), requires_grad=True) for _ in range(4)]
    logits = [Tensor(rng.standard_normal((2, 5)), requires_grad=True) for _ in range(4)]
    final_logits = rng.standard_normal((2, 5))
    labels = rng.integers(0, 5, 2)

    def build():
        parts = DistillationParts(
            hete=heterogeneous_loss(features, aligned_teachers(targets, final.data)),
            homo_lph=homogeneous_lph_loss(features[:2]),
            homo_gah=homogeneous_gah_loss(features[2:]),
            pred=prediction_loss(logits, final_logits, labels, 0.5, 4.0),
        )
        return total_loss(parts, 0.1, 0.1)

    err = grad_check(build, [features[0], features[2], logits[1], logits[3]])
    assert err < FD_TOL
