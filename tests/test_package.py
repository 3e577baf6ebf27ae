import hpascal


def test_every_export_resolves():
    assert [name for name in hpascal.__all__ if not hasattr(hpascal, name)] == []
