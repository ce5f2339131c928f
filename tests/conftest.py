"""Shared fixtures: the kernel backend is loaded once, filters designed once."""

import pytest

from sdlab import _kernels
from sdlab.filters import design_filter

# build and load the C loop before any timed test runs
_kernels.BACKEND


@pytest.fixture(scope="session")
def filt_fast():
    """Loose-tolerance filter for schema and plumbing tests."""
    return design_filter(trunc_tol=1e-4)


@pytest.fixture(scope="session")
def filt_default():
    """Default design; accuracy tests need the real tail bound."""
    return design_filter()
