import pytest

import mfbmwave.synth as synth


@pytest.fixture
def fresh_embedding_cache():
    """An empty embedding cache, emptied again after the test, so that a
    factor built under a patched budget or tracer serves no other test."""
    synth._cached_embedding.cache_clear()
    yield
    synth._cached_embedding.cache_clear()
