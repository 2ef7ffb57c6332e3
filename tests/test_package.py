import linkpattern


def test_every_export_resolves():
    missing = [name for name in linkpattern.__all__ if not hasattr(linkpattern, name)]
    assert missing == []
    assert len(set(linkpattern.__all__)) == len(linkpattern.__all__)
