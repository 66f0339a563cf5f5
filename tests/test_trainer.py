"""Training-loop behavior: config plumbing, seed streams, determinism,
equivalence to a plain reference loop, descent, and store extraction.

Training runs here are deliberately tiny (tens of samples, a handful of
epochs) so the whole module stays under a few seconds.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from noodle.datagen import NoiseSpec, inject_symmetric_noise, make_gaussian_mixture
from noodle.losses import LOSS_KINDS
from noodle.model import DivergenceError, forward, init_mlp
from noodle.trainer import (
    SeedStreams,
    TrainConfig,
    derive_streams,
    extract_reference_store,
    params_checksum,
    train,
)


def _toy_data(seed=0, classes=3, per_class=12, dim=6, noise_rate=0.0):
    rng = np.random.default_rng(seed)
    data = make_gaussian_mixture(classes, per_class, dim, 6.0, 0.8, rng)
    if noise_rate > 0:
        data.noisy_labels = inject_symmetric_noise(
            data.clean_labels, NoiseSpec(rate=noise_rate), classes, rng
        )
    return data


def _toy_config(**overrides):
    return replace(TrainConfig(epochs=3, batch_size=8, widths=(16, 8), seed=0), **overrides)


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig()

    def test_sparsity_weight_grid_is_accepted(self):
        for lam in (0.0001, 0.0005, 0.001, 0.005, 0.1):
            replace(TrainConfig(), lam=lam)

    def test_dict_round_trip_uses_the_external_lambda_name(self):
        config = _toy_config(lam=0.25)
        doc = config.to_dict()
        assert doc["lambda"] == 0.25 and "lam" not in doc
        assert TrainConfig.from_dict(doc) == config

    def test_from_dict_accepts_version_and_rejects_typos(self):
        # A "version" key was once accepted with any value and dropped;
        # nothing writes one, so it is now an unknown key like a typo.
        doc = _toy_config().to_dict()
        for key, value in (("version", "banana"), ("epohcs", 5)):
            with pytest.raises(ValueError, match=f"^unknown config keys: {key}$"):
                TrainConfig.from_dict({**doc, key: value})

    def test_hash_is_stable_and_field_sensitive(self):
        a = _toy_config()
        assert a.config_hash() == _toy_config().config_hash()
        assert a.config_hash() != replace(a, t_diag_init=0.98).config_hash()
        assert a.config_hash() != replace(a, lam=0.002).config_hash()

    def test_validate_collects_problems(self):
        with pytest.raises(ValueError) as exc:
            _toy_config(lam=-1.0, loss_kind="zzz", seed=-1)
        assert "lambda" in str(exc.value) and "loss_kind" in str(exc.value)
        assert "seed must be >= 0, got -1" in str(exc.value)

    def test_t_diag_init_range(self):
        with pytest.raises(ValueError, match="t_diag_init"):
            _toy_config(t_diag_init=1.0)

    def test_range_checks_name_their_field(self):
        for name, value, message in (
            ("epochs", -1, "epochs must be >= 0, got -1"),
            ("batch_size", 0, "batch_size must be >= 1, got 0"),
            ("loss_kind", "zzz", f"loss_kind must be one of {LOSS_KINDS}, got 'zzz'"),
            ("lam", -1.0, "lambda must be >= 0, got -1.0"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("t_diag_init", 0.0, "t_diag_init must be in (0, 1), got 0.0"),
            ("widths", (), "widths must be positive, got ()"),
            ("widths", (8, 0), "widths must be positive, got (8, 0)"),
        ):
            with pytest.raises(ValueError) as exc:
                _toy_config(**{name: value})
            assert str(exc.value) == f"invalid config: {message}", name

    def test_config_is_frozen(self):
        # Checked once, on construction, so no field may change after it.
        with pytest.raises(FrozenInstanceError):
            _toy_config().lam = -1.0

    def test_validate_checks_types_and_stores_the_default_form(self):
        for name, value, message in (
            ("t_diag_init", "fast", "t_diag_init must be a number, got 'fast'"),
            ("epochs", 2.0, "epochs must be an integer, got 2.0"),
            ("epochs", True, "epochs must be an integer, got True"),
            ("lam", None, "lambda must be a number, got None"),
            ("loss_kind", 1, "loss_kind must be a string, got 1"),
            ("widths", 16, "widths must be a list of integers, got 16"),
            ("widths", (16, 8.0), "widths must be a list of integers, got (16, 8.0)"),
            # NaN trained as lambda 0, an infinite step size diverged (exit 3)
            # and an int too large for a float raised OverflowError.
            ("lam", float("nan"), "lambda must be a finite number, got nan"),
            ("lam", float("inf"), "lambda must be a finite number, got inf"),
            ("t_diag_init", -float("inf"), "t_diag_init must be a finite number, got -inf"),
            ("t_diag_init", 10**400, f"t_diag_init must be a finite number, got {10**400}"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                replace(_toy_config(), **{name: value})
        # An int stands for a float and is stored as that float.
        config = TrainConfig.from_dict({"lambda": 0, "widths": [16, 8]})
        assert type(config.lam) is float and type(config.to_dict()["lambda"]) is float
        assert config.widths == (16, 8)

    def test_equal_settings_are_equal_values(self):
        # A list of widths left the frozen config unhashable and unequal to
        # its tuple twin, and an int lambda hashed apart from its float.
        listed, tupled = TrainConfig(widths=[8, 4]), TrainConfig(widths=(8, 4))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.config_hash() == tupled.config_hash()
        assert TrainConfig(lam=0).config_hash() == TrainConfig(lam=0.0).config_hash()


class TestSeedStreams:
    def test_streams_are_deterministic(self):
        a, b = derive_streams(7), derive_streams(7)
        for x, y in zip(a, b):
            assert x.standard_normal(4).tolist() == y.standard_normal(4).tolist()

    def test_streams_are_mutually_distinct(self):
        streams = derive_streams(7)
        draws = [s.standard_normal(8) for s in streams]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_named_fields(self):
        assert SeedStreams._fields == ("init", "shuffle", "decompose", "store")


class TestTrainBasics:
    def test_zero_epochs_returns_initialization(self):
        data = _toy_data()
        config = _toy_config(epochs=0)
        result = train(data, config)
        reference = init_mlp(data.dim, data.num_classes, derive_streams(0).init, (16, 8))
        assert params_checksum(result.params) == params_checksum(reference)
        assert result.loss_trace == []
        assert result.store is not None

    def test_identical_runs_are_bit_identical(self):
        data = _toy_data(noise_rate=0.2)
        config = _toy_config(loss_kind="cm", lam=0.001)
        a, b = train(data, config), train(data, config)
        assert params_checksum(a.params) == params_checksum(b.params)
        assert a.loss_trace == b.loss_trace
        np.testing.assert_array_equal(a.transition.theta, b.transition.theta)
        np.testing.assert_array_equal(a.store.embeddings, b.store.embeddings)

    def test_seed_changes_the_run(self):
        data = _toy_data()
        a = train(data, _toy_config(seed=0))
        b = train(data, _toy_config(seed=1))
        assert params_checksum(a.params) != params_checksum(b.params)

    def test_separable_toy_reaches_high_accuracy(self):
        data = _toy_data(seed=1, per_class=20)
        config = _toy_config(epochs=30, loss_kind="ce", lam=0.0)
        result = train(data, config)
        probs = forward(result.params, data.features).probs
        accuracy = (probs.argmax(axis=0) == data.clean_labels).mean()
        assert accuracy >= 0.99

    def test_loss_decreases_on_full_batch_descent(self, monkeypatch):
        # Full batch, no momentum, small lr: the first epochs must not climb.
        monkeypatch.setattr("noodle.trainer.LR", 0.01)
        monkeypatch.setattr("noodle.trainer.MOMENTUM", 0.0)
        data = _toy_data(seed=2)
        config = _toy_config(epochs=6, batch_size=1000, loss_kind="ce", lam=0.0)
        trace = train(data, config).loss_trace
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-6

    def test_overflowing_loss_raises_divergence_error(self, monkeypatch):
        # A huge first step overflows the logits of the second batch for
        # every loss kind, before a loss sees a NaN softmax; the abort names
        # the epoch and batch.  A smaller huge step leaves finite logits but
        # latents whose norms overflow, so the store's split normalizes every
        # one to zero.  No NumPy warning comes before either error.  Weight
        # decay is off: at such steps it overflows the weights sooner.
        monkeypatch.setattr("noodle.trainer.WEIGHT_DECAY", 0.0)
        data = _toy_data()
        for lr, message in (
            (1e300, r"^non-finite logits at epoch 0, batch 1$"),
            (1e100, r"^every training latent is zero or overflows after 3 epoch\(s\)$"),
        ):
            monkeypatch.setattr("noodle.trainer.LR", lr)
            for kind in LOSS_KINDS:
                with pytest.raises(DivergenceError, match=message):
                    train(data, _toy_config(loss_kind=kind))

    def test_empty_training_set_rejected(self):
        data = _toy_data()
        data.features = data.features[:0]
        data.clean_labels = data.clean_labels[:0]
        data.noisy_labels = data.noisy_labels[:0]
        with pytest.raises(ValueError, match="empty"):
            train(data, _toy_config())

    def test_class_without_training_labels_rejected_before_training(self, monkeypatch):
        # Unchecked, every epoch trains and only the store build then fails.
        import noodle.trainer

        data = _toy_data(classes=4)
        data.noisy_labels = np.where(data.noisy_labels == 2, 3, data.noisy_labels)

        def no_forward(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(noodle.trainer, "forward", no_forward)
        with pytest.raises(ValueError, match=r"no training labels for class\(es\) 2$"):
            train(data, _toy_config())

    def test_rank_above_the_latent_width_rejected_before_training(self, monkeypatch):
        # Unchecked, the split clamps the rank to the width and the residual
        # is identically zero: the penalty silently does nothing.
        import noodle.trainer

        def no_forward(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(noodle.trainer, "forward", no_forward)
        with pytest.raises(ValueError, match=r"rank 4 \(the class count\) exceeds the latent width 3$"):
            train(_toy_data(classes=4), _toy_config(widths=(16, 3)))

    def test_t_diag_init_must_beat_chance(self):
        data = _toy_data(classes=4)
        with pytest.raises(ValueError, match="t_diag_init"):
            train(data, _toy_config(t_diag_init=0.25))


class TestReferenceEquivalence:
    def test_lambda_zero_ce_matches_decomposition_free_loop(self):
        # The loop with the regularizer off must be the plain loop exactly,
        # not approximately: same init and shuffle draws, untouched theta.
        from oracles import reference_ce_loop

        data = _toy_data(seed=3, noise_rate=0.3)
        config = _toy_config(epochs=5, loss_kind="ce", lam=0.0)
        result = train(data, config)
        reference = reference_ce_loop(data, config)
        assert params_checksum(result.params) == params_checksum(reference)

    def test_non_cm_losses_leave_theta_at_initialization(self):
        from noodle.losses import init_near_identity

        data = _toy_data(noise_rate=0.2)
        for kind in ("ce", "sce", "gce"):
            result = train(data, _toy_config(loss_kind=kind, lam=0.001))
            init_theta = init_near_identity(data.num_classes, 0.99).theta
            np.testing.assert_array_equal(result.transition.theta, init_theta)

    def test_cm_loss_moves_theta(self):
        data = _toy_data(noise_rate=0.3)
        result = train(data, _toy_config(loss_kind="cm"))
        init_theta = np.diag(np.full(data.num_classes, result.transition.theta[0, 0]))
        assert not np.array_equal(result.transition.theta, init_theta)


class TestSplitCalls:
    """The per-batch split feeds only the sparsity term: at lam = 0 the only
    split is the reference store's full pass."""

    @staticmethod
    def _count_splits(monkeypatch) -> list:
        import noodle.trainer

        calls = []
        real = noodle.trainer.split_features

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(noodle.trainer, "split_features", counting)
        return calls

    @pytest.mark.parametrize("loss_kind", ["ce", "cm"])
    def test_lambda_zero_splits_only_for_the_store(self, monkeypatch, loss_kind):
        calls = self._count_splits(monkeypatch)
        data = _toy_data(noise_rate=0.2)
        train(data, _toy_config(loss_kind=loss_kind, lam=0.0))
        assert calls == [(8, len(data))]

    @pytest.mark.parametrize("loss_kind", ["ce", "cm"])
    def test_positive_lambda_splits_every_batch(self, monkeypatch, loss_kind):
        calls = self._count_splits(monkeypatch)
        data = _toy_data(noise_rate=0.2)
        config = _toy_config(loss_kind=loss_kind, lam=0.001)
        train(data, config)
        batches = -(-len(data) // config.batch_size)
        assert len(calls) == batches * config.epochs + 1
        assert calls[-1] == (8, len(data))


class TestReferenceStore:
    def test_store_covers_training_set(self):
        data = _toy_data(seed=4)
        result = train(data, _toy_config())
        store = result.store
        assert len(store) == len(data)
        np.testing.assert_allclose(np.linalg.norm(store.embeddings, axis=1), 1.0, atol=1e-9)
        assert store.num_classes == data.num_classes

    def test_store_embeddings_span_at_most_the_class_count(self):
        # The store holds the projected part of one full-pass split at the
        # class count's rank, so its embedding matrix cannot exceed that rank
        # (normalization preserves span) although the latent width is 8.
        data = _toy_data(seed=5, per_class=15)
        store = train(data, _toy_config()).store
        singulars = np.linalg.svd(store.embeddings, compute_uv=False)
        assert data.num_classes == 3 and store.latent_dim == 8
        assert singulars[3:].max() <= 1e-8 * singulars[0]

    def test_standalone_extraction_matches_train(self):
        data = _toy_data(seed=6)
        config = _toy_config()
        result = train(data, config)
        redo = extract_reference_store(result.params, data, config)
        np.testing.assert_array_equal(redo.embeddings, result.store.embeddings)
        np.testing.assert_array_equal(redo.shared_precision, result.store.shared_precision)

    def test_dead_network_raises_divergence_error(self):
        # All-zero latents leave the store nothing: a failed run, not a store problem.
        data = _toy_data()
        config = _toy_config()
        params = init_mlp(data.dim, data.num_classes, np.random.default_rng(0), config.widths)
        params.weights[-1][:] = 0.0
        with pytest.raises(DivergenceError, match=r"^every training latent is zero or overflows after 3 epoch"):
            extract_reference_store(params, data, config)

    def test_store_uses_noisy_labels(self):
        data = _toy_data(seed=8, noise_rate=0.4)
        result = train(data, _toy_config(epochs=1))
        np.testing.assert_array_equal(result.store.labels, data.noisy_labels)


def test_params_checksum_changes_with_any_array():
    data = _toy_data()
    params = init_mlp(data.dim, data.num_classes, np.random.default_rng(0), (16, 8))
    before = params_checksum(params)
    params.head_bias[0] += 1e-12
    assert params_checksum(params) != before
