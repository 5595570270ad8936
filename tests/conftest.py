"""Shared fixtures."""

import pytest


@pytest.fixture
def pin_layer_bits(monkeypatch):
    """pin(bits) makes every later engine walk evaluate its Kloosterman box
    layers at bits (53: float64, else fixed point), in place of the
    automatic choice of poincare.layer_bits_for; pin again to change it."""
    import mgrid.poincare as poincare

    def pin(bits: int) -> None:
        monkeypatch.setattr(poincare, "layer_bits_for", lambda ctx, c, level=1: bits)

    return pin
