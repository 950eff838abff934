"""Deliberately naive reference implementations that production code is
proven byte-identical against."""

from tests.oracle.medium import ReferenceMedium

__all__ = ["ReferenceMedium"]
