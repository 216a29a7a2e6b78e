"""Fixtures shared by the test modules."""

from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """A Counter of the ``np.linalg.eigh`` and ``np.linalg.svd`` calls made
    during the test, by name; ``clear()`` starts a new count."""
    counts = Counter()
    for name in ("eigh", "svd"):
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
