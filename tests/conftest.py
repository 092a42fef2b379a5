"""Shared fixtures."""

import pytest

from mckay import linalg


@pytest.fixture
def matmul_calls(monkeypatch) -> list:
    """Record the shapes of every ``linalg.matmul`` call made by the test."""
    calls = []
    original = linalg.matmul

    def counted(a, b):
        calls.append((len(a), len(b)))
        return original(a, b)

    monkeypatch.setattr(linalg, "matmul", counted)
    return calls
