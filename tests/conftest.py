"""Fixtures and hypothesis settings shared by the test modules."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

# property tests run numerics whose time varies with the host's load, so no
# example has a deadline; each test sets its own ``max_examples``
settings.register_profile("coiso", deadline=None)
settings.load_profile("coiso")


@pytest.fixture
def linalg_calls(monkeypatch):
    """A Counter of the ``np.linalg.eigh``, ``np.linalg.svd`` and
    ``np.linalg.qr`` calls made during the test, by name; ``clear()``
    starts a new count."""
    counts = Counter()
    for name in ("eigh", "svd", "qr"):
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
