"""Tests for ReplayConfig identity hardening: strict digests,
unknown-key reporting in ``from_dict``, and the ignored ``vectorized``
field."""

import logging

import pytest

import repro.api as api
from repro.core.replayer import ReplayConfig
from repro.hardware.network import InterconnectSpec
from repro.core.tensors import EmbeddingValueConfig
from repro.workloads.ddp import DistributedRunner

from tests.conftest import make_small_rm


class TestDigestStrictness:
    def test_digest_stable_for_plain_configs(self):
        assert ReplayConfig().digest() == ReplayConfig().digest()
        assert ReplayConfig(device="A100").digest() != ReplayConfig(device="V100").digest()

    def test_digest_encodes_nested_dataclasses(self):
        default = ReplayConfig()
        tuned = ReplayConfig(
            embedding_config=EmbeddingValueConfig(zipf_alpha=1.2),
            interconnect=InterconnectSpec(),
        )
        assert default.digest() != tuned.digest()
        # Round-tripping through the dict form preserves the digest.
        assert ReplayConfig.from_dict(tuned.to_dict()).digest() == tuned.digest()

    def test_digest_raises_on_unserializable_field(self):
        class Opaque:
            pass

        config = ReplayConfig(embedding_config=Opaque())
        with pytest.raises(TypeError, match="non-JSON-serialisable"):
            config.digest()

    def test_unserializable_values_cannot_collide_via_repr(self):
        # Two distinct objects whose str() forms collide must not silently
        # produce a shared digest (the old default=str fallback allowed it).
        class Sneaky:
            def __str__(self):
                return "same"

        first = ReplayConfig(embedding_config=Sneaky())
        second = ReplayConfig(embedding_config=Sneaky())
        with pytest.raises(TypeError):
            first.digest()
        with pytest.raises(TypeError):
            second.digest()


class TestFromDictUnknownKeys:
    def test_unknown_keys_logged_when_lenient(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.replayer"):
            config = ReplayConfig.from_dict({"device": "V100", "iteratons": 5})
        assert config == ReplayConfig(device="V100")
        assert "iteratons" in caplog.text

    def test_unknown_keys_raise_when_strict(self):
        with pytest.raises(ValueError, match="iteratons"):
            ReplayConfig.from_dict({"iteratons": 5}, strict=True)

    def test_strict_accepts_exact_roundtrip(self):
        config = ReplayConfig(device="V100", iterations=3)
        assert ReplayConfig.from_dict(config.to_dict(), strict=True) == config

    def test_absent_keys_keep_defaults(self):
        config = ReplayConfig.from_dict({"device": "V100"}, strict=True)
        assert config.iterations == ReplayConfig().iterations
        assert config.embedding_config == EmbeddingValueConfig()


class TestCacheIdentity:
    """``vectorized`` is accepted and ignored, so it must never split a
    cache key."""

    def test_vectorized_is_excluded_from_canonical_form(self):
        assert "vectorized" not in ReplayConfig().to_dict()
        assert "vectorized" not in ReplayConfig(vectorized=False).to_dict()

    def test_both_modes_share_one_cache_digest(self):
        fast = ReplayConfig(device="V100", iterations=3, vectorized=True)
        scalar = ReplayConfig(device="V100", iterations=3, vectorized=False)
        assert fast.digest() == scalar.digest()

    def test_from_dict_still_accepts_vectorized(self):
        config = ReplayConfig.from_dict({"vectorized": False})
        assert config.vectorized is False


class TestIgnoredVectorizedField:
    def test_cluster_replay_is_identical_either_way(self):
        runner = DistributedRunner(
            lambda rank, world_size: make_small_rm(rank, world_size), world_size=2
        )
        captures = runner.run()

        def run(vectorized: bool):
            return (
                api.replay_cluster(captures)
                .configure(vectorized=vectorized)
                .iterations(2, warmup=1)
                .run()
            )

        assert run(True).to_dict() == run(False).to_dict()
