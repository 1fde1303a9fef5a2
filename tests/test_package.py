"""The package's public surface."""

import dcopt


def test_every_exported_name_resolves():
    missing = [name for name in dcopt.__all__ if not hasattr(dcopt, name)]
    assert missing == []
    assert len(set(dcopt.__all__)) == len(dcopt.__all__)
