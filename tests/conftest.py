"""Fixtures shared by the test modules."""

import pytest

from ctburgers import _native


@pytest.fixture
def library(monkeypatch):
    """``library(compiled)`` makes the one lookup of the compiled library,
    ``_native.compiled``, return the ``_Compiled`` given until the test
    ends: ``library(_native._PYTHON)`` runs every entry point on its Python
    path, as on a machine without a C compiler."""
    return lambda compiled: monkeypatch.setattr(_native, "compiled", lambda: compiled)
