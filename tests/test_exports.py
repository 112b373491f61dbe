import memxl


def test_every_exported_name_resolves():
    missing = [name for name in memxl.__all__ if not hasattr(memxl, name)]
    assert missing == []
