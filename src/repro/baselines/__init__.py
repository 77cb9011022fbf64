"""Comparison systems from the paper's evaluation, on the same substrate."""

from .hirb import HIRBMap
from .mysql_like import PlainIndex
from .opaque import OpaqueSystem
from .sparksql import PlainSystem

__all__ = [
    "HIRBMap",
    "OpaqueSystem",
    "PlainIndex",
    "PlainSystem",
]
