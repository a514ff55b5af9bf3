"""Fixtures shared by the tier-1 test modules."""

import contextlib
from unittest import mock

import pytest

from repro.columns import backend


def _each_backend():
    if backend.np is not None:
        yield "numpy", contextlib.nullcontext()
    yield "stdlib", mock.patch.object(backend, "np", None)


@pytest.fixture(scope="session")
def each_backend():
    """A callable yielding ``(label, context)`` per column backend this
    interpreter can run: numpy where importable and always the stdlib
    fallback.  Session-scoped so ``hypothesis`` tests may take it: a
    property test then covers both backends inside one example, and neither
    the ``REPRO_NO_NUMPY`` leg nor the default one is ever a skip."""
    return _each_backend


@pytest.fixture
def count_hash_calls():
    """A callable that wraps ``hash_indices`` of the given Hash-CAM tables
    and returns the one list every wrapped call appends its key to."""

    def wrap(*tables):
        calls = []
        for table in tables:
            table.hash_indices = lambda key, inner=table.hash_indices: (
                calls.append(key) or inner(key)
            )
        return calls

    return wrap
