"""Tests for partition episodes and two-sided channel cuts.

A blackout run through a partition lives in ``tests/test_fault_timeline.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.network import Partition, split_channels


def test_partition_validation():
    with pytest.raises(ConfigurationError):
        Partition(5.0, 5.0, frozenset())
    with pytest.raises(ConfigurationError):
        split_channels({1, 2}, {2, 3})


def test_split_channels_bidirectional():
    channels = split_channels({1}, {2, 3})
    assert channels == {(1, 2), (2, 1), (1, 3), (3, 1)}
