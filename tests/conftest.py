import pytest

from hpascal import triangle
from hpascal.triangle import generate_rows


@pytest.fixture(scope="session")
def rows_q5():
    """Rows 0..15 of the q = 5 triangle, shared across tests."""
    return list(generate_rows(5, 15))


@pytest.fixture
def built_rows(monkeypatch):
    """(q, n) of every row next_row builds while the test runs."""
    built = []
    original = triangle.next_row

    def counting(row, q):
        built.append((q, row.n + 1))
        return original(row, q)

    monkeypatch.setattr(triangle, "next_row", counting)
    return built
