"""Tests for core types and the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import (
    ConfigurationError,
    ConsistencyViolation,
    ProtocolError,
    ReproError,
    Update,
    UpdateId,
    UnknownRegisterError,
    UnknownReplicaError,
)
from repro.errors import CompressionError, SimulationError
from repro.types import edge


def test_edge_helpers():
    assert edge(1, 2) == (1, 2)


def test_update_id_ordering_and_str():
    a = UpdateId(1, 1)
    b = UpdateId(1, 2)
    assert a < b
    assert str(a) == "u(1,1)"
    assert hash(a) == hash(UpdateId(1, 1))


def test_update_dataclass():
    u = Update(UpdateId(2, 3), "x", 41, timestamp=None)
    assert u.issuer == 2
    assert not u.metadata_only
    assert "data" in str(u)
    meta = Update(UpdateId(2, 3), "x", None, None, metadata_only=True)
    assert "meta" in str(meta)


def test_exception_hierarchy():
    for exc_type in (
        ConfigurationError,
        ProtocolError,
        SimulationError,
        CompressionError,
        ConsistencyViolation,
    ):
        assert issubclass(exc_type, ReproError)
    assert issubclass(UnknownReplicaError, ConfigurationError)


def test_error_messages_carry_context():
    e = UnknownReplicaError(7)
    assert "7" in str(e) and e.replica_id == 7
    e2 = UnknownRegisterError("x", 3)
    assert "x" in str(e2) and e2.register == "x"


def test_consistency_violation_renders_violations():
    err = ConsistencyViolation(["v1", "v2"])
    assert "v1" in str(err)
    assert err.violations == ["v1", "v2"]
