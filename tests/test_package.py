import timebin


def test_every_exported_name_resolves():
    assert [name for name in timebin.__all__ if not hasattr(timebin, name)] == []
