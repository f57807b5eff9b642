"""Fixtures shared by every test package."""

import socket

import pytest


@pytest.fixture(scope="session")
def require_loopback_bind():
    """Skip the requesting tests when no loopback port can be bound at
    all.  HTTP-facing modules opt in through ``pytestmark``."""
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
    except OSError as exc:
        pytest.skip(f"cannot bind a loopback port here: {exc}")
