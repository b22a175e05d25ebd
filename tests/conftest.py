import numpy as np
import pytest


def _record_solver_calls(monkeypatch, names, record):
    """Wrap each np.linalg solver in ``names`` so every call is passed to record(name, input)."""
    for name in names:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            record(_name, a)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)


@pytest.fixture
def eig_sizes(monkeypatch):
    """Sizes of every np.linalg.eigh / eigvalsh call made while the test runs."""
    sizes = []
    _record_solver_calls(monkeypatch, ("eigh", "eigvalsh"), lambda name, a: sizes.append(np.shape(a)[-1]))
    return sizes


@pytest.fixture
def solver_calls(monkeypatch):
    """(name, input copy) of every np.linalg.eigh / eigvalsh / svd call made while the test runs."""
    calls = []
    _record_solver_calls(
        monkeypatch, ("eigh", "eigvalsh", "svd"), lambda name, a: calls.append((name, np.array(a)))
    )
    return calls
