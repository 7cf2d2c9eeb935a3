import os
import sys
import tracemalloc

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from mkdvlab.spectral import GridSpec, SpectralField


@pytest.fixture
def grid8():
    return GridSpec(8)


@pytest.fixture
def grid16():
    return GridSpec(16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cosine_field(grid8):
    return SpectralField.from_modes(grid8, {1: 0.5, -1: 0.5})


def _peak_above(fn, *args, **kwargs):
    """(peak, kept, result) of fn(*args, **kwargs) under tracemalloc, in
    bytes: the traced peak above what was allocated before the call, and
    what the call left allocated after it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, current - before, out


@pytest.fixture
def peak_above():
    return _peak_above
