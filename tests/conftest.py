"""Shared fixtures: isolate every test from the ambient cache config.

CI runs the suite with ``REPRO_NO_CACHE=1`` (so no cached result can
mask a simulator regression), while developers may have
``REPRO_CACHE_DIR`` pointing anywhere.  Tests that exercise the cache
layer construct their own ``ResultCache(tmp_path)`` and must see neither
setting, so both are cleared for every test; tests that *want* them set
them explicitly via ``monkeypatch``.
"""

import pytest


@pytest.fixture(autouse=True)
def _clean_cache_environment(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
