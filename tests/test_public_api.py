"""The package's exported names."""

import mkdvlab


def test_all_names_resolve():
    missing = [name for name in mkdvlab.__all__ if not hasattr(mkdvlab, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(mkdvlab.__all__)) == len(mkdvlab.__all__)
