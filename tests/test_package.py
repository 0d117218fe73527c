"""The package's public surface."""

import torickit


def test_every_export_resolves():
    missing = [name for name in torickit.__all__ if not hasattr(torickit, name)]
    assert missing == []
