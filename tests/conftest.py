"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """The size of every numpy.fft transform made during the test, in call order."""
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfftn", "irfftn"):

        def counted(a, *args, _transform=getattr(np.fft, name), **kwargs):
            calls.append(np.size(a))
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
