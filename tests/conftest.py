import functools

import numpy as np
import pytest


def _record_calls(monkeypatch, module, names, record):
    """Wrap each function of module in ``names`` so every call passes record(name, *its positional arguments)."""
    for name in names:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            record(_name, *args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(module, names, record) wraps functions of module while the test runs (``_record_calls``)."""
    return functools.partial(_record_calls, monkeypatch)


@pytest.fixture
def eig_sizes(monkeypatch):
    """Sizes of every np.linalg.eigh / eigvalsh call made while the test runs."""
    sizes = []
    _record_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh"), lambda name, a, *_: sizes.append(np.shape(a)[-1]))
    return sizes


@pytest.fixture
def solver_calls(monkeypatch):
    """(name, input copy) of every np.linalg.eigh / eigvalsh / svd call made while the test runs."""
    calls = []
    _record_calls(
        monkeypatch, np.linalg, ("eigh", "eigvalsh", "svd"), lambda name, a, *_: calls.append((name, np.array(a)))
    )
    return calls
