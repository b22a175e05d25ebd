import numpy as np
import pytest


@pytest.fixture
def eig_sizes(monkeypatch):
    """Sizes of every np.linalg.eigh / eigvalsh call made while the test runs."""
    sizes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            sizes.append(np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return sizes
