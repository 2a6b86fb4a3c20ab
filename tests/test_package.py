import texlat


def test_every_exported_name_resolves():
    missing = [name for name in texlat.__all__ if not hasattr(texlat, name)]
    assert missing == []
    assert len(set(texlat.__all__)) == len(texlat.__all__)
