"""The package namespace: __all__ lists exactly the public names it binds."""

from __future__ import annotations

import types

import geomax


def test_all_matches_the_public_names():
    public = {
        name
        for name, value in vars(geomax).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(geomax.__all__) == len(set(geomax.__all__))
    assert set(geomax.__all__) == public
