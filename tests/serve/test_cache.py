"""The serving result cache and artifact-default precision resolution."""

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.donn import DONN, DONNConfig
from repro.serve import ResultCache, ServeConfig, Server


@pytest.fixture(scope="module")
def model():
    return DONN(DONNConfig.laptop(n=12, num_layers=2), rng=spawn_rng(0))


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((6, 28, 28))


def serve(model, **overrides):
    overrides.setdefault("max_batch", 4)
    overrides.setdefault("max_delay", 0.001)
    return Server(model=model, config=ServeConfig(**overrides))


class TestResultCacheUnit:
    def test_lru_eviction(self):
        cache = ResultCache(2)
        samples = [np.full((2, 2), float(i)) for i in range(3)]
        keys = [ResultCache.make_key("predict", s) for s in samples]
        for key, sample in zip(keys, samples):
            cache.put(key, sample)
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[2]) is not None
        assert cache.stats()["size"] == 2

    def test_key_separates_kind_shape_dtype(self):
        sample = np.ones((2, 2))
        base = ResultCache.make_key("predict", sample)
        assert ResultCache.make_key("logits", sample) != base
        assert ResultCache.make_key("predict", np.ones((4,))) != base
        assert ResultCache.make_key(
            "predict", np.ones((2, 2), dtype=np.float32)) != base

    def test_stored_rows_are_read_only_copies(self):
        cache = ResultCache(4)
        sample = np.ones((2, 2))
        key = ResultCache.make_key("predict", sample)
        row = np.arange(4.0)
        cache.put(key, row)
        row[:] = -1.0  # mutating the source must not reach the cache
        cached = cache.get(key)
        np.testing.assert_array_equal(cached, np.arange(4.0))
        with pytest.raises(ValueError):
            cached[0] = 99.0

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(0)


class TestServerCache:
    def test_disabled_by_default(self, model, images):
        with serve(model) as server:
            server.predict(images)
            assert server.stats()["cache"] is None

    def test_hits_are_byte_identical_to_misses(self, model, images):
        with serve(model, cache_size=32) as server:
            first = server.predict(images)
            second = server.predict(images)
            stats = server.stats()["cache"]
        np.testing.assert_array_equal(first, second)
        assert first.dtype == second.dtype
        assert stats["hits"] == len(images)
        assert stats["misses"] == len(images)

    def test_cached_rows_match_engine_exactly(self, model, images):
        reference = model.inference_engine().logits(images)
        with serve(model, cache_size=32) as server:
            server.logits(images)           # populate
            cached = server.logits(images)  # all hits
            assert server.stats()["cache"]["hits"] == len(images)
        np.testing.assert_array_equal(cached, reference)

    def test_kinds_do_not_collide(self, model, images):
        with serve(model, cache_size=64) as server:
            labels = server.predict(images[:2])
            logits = server.logits(images[:2])
        assert labels.shape != logits.shape

    def test_mutating_rows_never_poisons_the_cache(self, model, images):
        reference = model.inference_engine().logits(images[0][None])[0]
        with serve(model, cache_size=32) as server:
            first = server.logits(images[0])   # miss
            first *= 0.0                       # miss rows are writeable
            second = server.logits(images[0])  # hit
            second[:] = -1.0                   # hit rows are writeable too
            third = server.logits(images[0])   # hit, must be pristine
        np.testing.assert_array_equal(third, reference)

    def test_distinct_inputs_miss(self, model, images):
        with serve(model, cache_size=32) as server:
            server.predict(images[0])
            server.predict(images[1])
            stats = server.stats()["cache"]
        assert stats["hits"] == 0
        assert stats["misses"] == 2

    def test_http_requests_share_the_cache(self, model, images):
        import json
        import urllib.request

        with serve(model, cache_size=32) as server:
            url = server.serve_http(port=0).url
            payload = json.dumps({"inputs": images.tolist()}).encode()
            results = []
            for _ in range(2):
                request = urllib.request.Request(
                    url + "/v1/predict", data=payload,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request,
                                            timeout=30) as response:
                    results.append(json.loads(
                        response.read())["predictions"])
            assert results[0] == results[1]
            assert server.stats()["cache"]["hits"] == len(images)


class TestArtifactPrecisionResolution:
    def test_artifact_precision_becomes_serving_default(self, tmp_path,
                                                        model):
        path = model.save(tmp_path / "m.npz", precision="single")
        server = Server(artifact=path)
        assert server.resolved_precision() == "single"
        assert server.info()["precision"] == "single"

    def test_explicit_config_precision_wins(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz", precision="single")
        server = Server(artifact=path,
                        config=ServeConfig(precision="double"))
        assert server.resolved_precision() == "double"

    def test_unrecorded_precision_defaults_to_double(self, tmp_path, model):
        path = model.save(tmp_path / "m.npz")
        server = Server(artifact=path)
        assert server.resolved_precision() == "double"

    def test_live_model_defaults_to_double(self, model):
        assert Server(model=model).resolved_precision() == "double"

    def test_served_engine_runs_at_artifact_precision(self, tmp_path,
                                                      model, images):
        path = model.save(tmp_path / "m.npz", precision="single")
        reference = model.inference_engine(
            precision="single").logits(images)
        with Server(artifact=path) as server:
            served = server.logits(images)
        assert served.dtype == np.float32
        np.testing.assert_array_equal(served, reference)
