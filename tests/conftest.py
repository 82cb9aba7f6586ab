"""Shared fixtures: the configuration at the published parameter value is
expensive enough (mirror construction) to build once per session."""

import pytest

from cakecheck.construction import build_configuration, mirror_construction


@pytest.fixture(scope="session")
def cfg222():
    cfg = build_configuration(2.22)
    mirror_construction(cfg)
    return cfg
