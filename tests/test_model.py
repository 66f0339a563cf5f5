"""MLP forward/backward against finite differences, optimizer semantics,
and checkpoint persistence."""

from __future__ import annotations

import copy
import json
import re

import numpy as np
import pytest

from noodle.model import (
    DivergenceError,
    MlpParams,
    backward,
    clip_global_norm,
    forward,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    softmax_columns,
    zero_grads_like,
)
from oracles import central_difference, max_rel_error


def _small_net(seed=0, in_dim=3, widths=(4,), num_classes=3):
    return init_mlp(in_dim, num_classes, np.random.default_rng(seed), widths)


class TestForward:
    def test_zero_weights_give_uniform_probs(self):
        params = _small_net()
        for arr in params.arrays():
            arr[...] = 0.0
        cache = forward(params, np.random.default_rng(1).standard_normal((5, 3)))
        np.testing.assert_allclose(cache.probs, 1.0 / 3.0, atol=1e-15)

    def test_hand_computed_single_layer(self):
        # Identity encoder on positive inputs (ReLU transparent), head doubles
        # the first latent coordinate into logit 0.
        params = MlpParams(
            weights=[np.eye(2)],
            biases=[np.zeros(2)],
            head_weight=np.array([[2.0, 0.0], [0.0, 1.0]]),
            head_bias=np.array([0.5, 0.0]),
        )
        cache = forward(params, np.array([[1.0, 3.0]]))
        np.testing.assert_array_equal(cache.latent, [[1.0], [3.0]])
        np.testing.assert_array_equal(cache.logits, [[2.5], [3.0]])

    def test_probs_are_distributions_and_shift_invariant(self):
        params = _small_net(2)
        x = np.random.default_rng(3).standard_normal((7, 3))
        cache = forward(params, x)
        np.testing.assert_allclose(cache.probs.sum(axis=0), 1.0, atol=1e-12)
        shifted = copy.deepcopy(params)
        shifted.head_bias += 13.75  # constant logit shift
        cache2 = forward(shifted, x)
        np.testing.assert_allclose(cache2.probs, cache.probs, atol=1e-12)

    def test_softmax_stable_at_large_magnitudes(self):
        probs = softmax_columns(np.array([[1e4], [-1e4], [0.0]]))
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)

    def test_deterministic(self):
        params = _small_net(4)
        x = np.random.default_rng(5).standard_normal((6, 3))
        np.testing.assert_array_equal(forward(params, x).probs, forward(params, x).probs)

    def test_rejects_wrong_input_width(self):
        with pytest.raises(ValueError):
            forward(_small_net(), np.ones((2, 5)))


class TestBackward:
    def test_zero_cotangents_give_zero_grads(self):
        params = _small_net(6)
        cache = forward(params, np.random.default_rng(7).standard_normal((4, 3)))
        grads = backward(params, cache, np.zeros_like(cache.logits), np.zeros_like(cache.latent))
        for arr in grads.arrays():
            np.testing.assert_array_equal(arr, 0.0)

    def test_latent_inlet_skips_the_head(self):
        params = _small_net(8)
        cache = forward(params, np.random.default_rng(9).standard_normal((4, 3)))
        grads = backward(
            params,
            cache,
            np.zeros_like(cache.logits),
            np.random.default_rng(10).standard_normal(cache.latent.shape),
        )
        np.testing.assert_array_equal(grads.head_weight, 0.0)
        np.testing.assert_array_equal(grads.head_bias, 0.0)

    def test_matches_finite_differences(self):
        # d=3, one hidden layer of width 4 (the latent), K=3, B=2; cotangents
        # fixed, every parameter checked.
        params = _small_net(11)
        x = np.random.default_rng(12).standard_normal((2, 3))
        g_logits = np.random.default_rng(13).standard_normal((3, 2))
        g_latent = np.random.default_rng(14).standard_normal((4, 2))
        base = forward(params, x)
        # FD through ReLU is only valid away from the kinks.
        assert np.abs(params.weights[0] @ x.T + params.biases[0][:, None]).min() > 1e-3

        def objective() -> float:
            cache = forward(params, x)
            return float((g_logits * cache.logits).sum() + (g_latent * cache.latent).sum())

        grads = backward(params, base, g_logits, g_latent)
        for param_arr, grad_arr in zip(params.arrays(), grads.arrays()):
            numeric = central_difference(lambda _: objective(), param_arr)
            assert max_rel_error(grad_arr, numeric, floor=1e-6) <= 1e-5

    def test_shape_validation(self):
        params = _small_net(15)
        cache = forward(params, np.ones((2, 3)))
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros_like(cache.logits), np.zeros((9, 2)))


class TestSgdStep:
    def test_vanilla_reduction(self):
        params = _small_net(16)
        before = copy.deepcopy(params)
        grads = zero_grads_like(params)
        for g in grads.arrays():
            g[...] = 1.0
        sgd_step(params, grads, zero_grads_like(params), lr=0.1, momentum=0.0, weight_decay=0.0)
        for p, b in zip(params.arrays(), before.arrays()):
            np.testing.assert_array_equal(p, b - 0.1)

    def test_momentum_carries_through_zero_gradient(self):
        params = _small_net(17)
        before = copy.deepcopy(params)
        state = zero_grads_like(params)
        for v in state.arrays():
            v[...] = 2.0
        sgd_step(params, zero_grads_like(params), state, lr=0.1, momentum=0.9)
        for p, b in zip(params.arrays(), before.arrays()):
            np.testing.assert_allclose(p, b - 0.1 * 0.9 * 2.0, rtol=1e-15)

    def test_two_steps_unroll_the_recurrence(self):
        # v1 = g, v2 = 0.9 g + g; cumulative displacement -lr (g + 1.9 g).
        params = _small_net(18)
        before = copy.deepcopy(params)
        state = zero_grads_like(params)
        grads = zero_grads_like(params)
        for g in grads.arrays():
            g[...] = 0.5
        for _ in range(2):
            sgd_step(params, grads, state, lr=0.2, momentum=0.9, weight_decay=0.0)
        for p, b in zip(params.arrays(), before.arrays()):
            np.testing.assert_allclose(p, b - 0.2 * (0.5 + 1.9 * 0.5), rtol=1e-14)

    def test_weight_decay_skips_biases(self):
        params = _small_net(19)
        before = copy.deepcopy(params)
        sgd_step(params, zero_grads_like(params), zero_grads_like(params), lr=0.1, weight_decay=0.5)
        for w, b in zip([*params.weights, params.head_weight], [*before.weights, before.head_weight]):
            np.testing.assert_allclose(w, b - 0.1 * 0.5 * b, rtol=1e-15)
        for bias, b in zip(params.biases, before.biases):
            np.testing.assert_array_equal(bias, b)
        np.testing.assert_array_equal(params.head_bias, before.head_bias)

    def test_non_finite_gradient_raises(self):
        # The message names the array, in the order of MlpParams.arrays().
        params = _small_net(20, widths=(4, 2))
        names = ["weights[0]", "weights[1]", "biases[0]", "biases[1]", "head_weight", "head_bias"]
        for index, name in enumerate(names):
            grads = zero_grads_like(params)
            grads.arrays()[index].flat[0] = np.nan
            with pytest.raises(DivergenceError, match=f"non-finite gradient in {re.escape(name)}$"):
                sgd_step(params, grads, zero_grads_like(params), lr=0.1)


class TestClipGlobalNorm:
    def test_scales_down_to_the_limit(self):
        params = _small_net(21)
        grads = zero_grads_like(params)
        for g in grads.arrays():
            g[...] = 3.0
        pre = clip_global_norm(grads, 1.0)
        assert pre > 1.0
        np.testing.assert_allclose(grads.global_norm(), 1.0, rtol=1e-12)

    def test_below_limit_untouched_and_extra_joint(self):
        params = _small_net(22)
        grads = zero_grads_like(params)
        grads.head_bias[...] = 0.1
        extra = np.full((2, 2), 100.0)
        pre = clip_global_norm(grads, 10.0, extra=extra)
        assert pre > 10.0  # extra dominates the joint norm
        total = grads.global_norm() ** 2 + float((extra**2).sum())
        np.testing.assert_allclose(np.sqrt(total), 10.0, rtol=1e-12)

        grads2 = zero_grads_like(params)
        grads2.head_bias[...] = 0.1
        snapshot = grads2.head_bias.copy()
        clip_global_norm(grads2, 10.0)
        np.testing.assert_array_equal(grads2.head_bias, snapshot)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        params = _small_net(23, in_dim=5, widths=(6, 4), num_classes=4)
        theta = np.random.default_rng(24).standard_normal((4, 4))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, transition_theta=theta, meta={"note": "fixture"})
        loaded, theta_back, meta = load_checkpoint(path)
        for a, b in zip(loaded.arrays(), params.arrays()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(theta_back, theta)
        assert meta == {"note": "fixture"}
        save_checkpoint(loaded, tmp_path / "again.json", transition_theta=theta_back, meta=meta)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_theta_is_optional(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(_small_net(25), path)
        _, theta, _ = load_checkpoint(path)
        assert theta is None

    def test_rejects_foreign_and_corrupt_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

        # The architecture is read off the arrays (in_dim 3, widths (4, 5),
        # 3 classes), so a corrupt checkpoint is one whose arrays disagree.
        good = tmp_path / "ckpt.json"
        theta = np.zeros((3, 3))
        save_checkpoint(_small_net(26, widths=(4, 5)), good, transition_theta=theta)
        original = json.loads(good.read_text(encoding="utf-8"))
        for edit, message in (
            (lambda d: d["weights"].__setitem__(1, [r[:-1] for r in d["weights"][1]]),
             "weights[1] has shape (5, 3), expected (5, 4)"),
            (lambda d: d["biases"][0].pop(), "biases[0] has shape (3,), expected (4,)"),
            (lambda d: d["biases"].pop(), "got 2 weight matrices and 1 biases"),
            (lambda d: d["weights"].__setitem__(0, d["weights"][0][0]),
             "every weight and head_weight must be a matrix"),
            (lambda d: [r.pop() for r in d["head_weight"]], "head_weight has shape (3, 4), expected (3, 5)"),
            (lambda d: d.update(head_bias=[0.5]), "head_bias has shape (1,), expected (3,)"),
            (lambda d: d.update(transition_theta=[[0.0]]),
             "transition_theta has shape (1, 1), expected (3, 3)"),
            (lambda d: d["weights"][0][2].pop(), "inhomogeneous shape"),
            (lambda d: d["biases"][1].__setitem__(0, None),
             "biases[1] holds a value that is not a finite number"),
            # NumPy's float() takes a JSON true as 1.0 and "0.5" as 0.5.
            (lambda d: d["head_bias"].__setitem__(0, True), "head_bias must be a number, got True"),
            (lambda d: d["weights"][1][0].__setitem__(2, "0.5"), "weights[1] must be a number, got '0.5'"),
            (lambda d: d["transition_theta"][2].__setitem__(0, False),
             "transition_theta must be a number, got False"),
        ):
            doc = copy.deepcopy(original)
            edit(doc)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: ')}.*{re.escape(message)}"):
                load_checkpoint(path)

    def test_missing_key_names_file_and_key(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(_small_net(27), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["head_bias"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: missing key 'head_bias'"


def test_init_mlp_bounds_and_validation():
    params = init_mlp(10, 4, np.random.default_rng(27), (8, 6))
    limit0 = np.sqrt(6.0 / 10)
    assert np.abs(params.weights[0]).max() <= limit0
    for b in params.biases:
        np.testing.assert_array_equal(b, 0.0)
    assert params.widths == (8, 6)
    with pytest.raises(ValueError):
        init_mlp(0, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        init_mlp(3, 1, np.random.default_rng(0))
