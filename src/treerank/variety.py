"""Tree variety tags shared by every module."""

from __future__ import annotations

import enum


class TreeVariety(enum.Enum):
    """Which 1-2 tree family a computation refers to.

    NONPLANE: sibling order is irrelevant; the trees on [n] are counted
    by the zigzag numbers 1, 1, 1, 2, 5, 16, 61, ...
    PLANE: sibling order matters; the counts are 1, 1, 1, 3, 9, 39, ...
    """

    NONPLANE = "nonplane"
    PLANE = "plane"

    def __str__(self) -> str:
        return self.value

    @property
    def child_orders(self) -> int:
        """2c: the orders in which a root's two children are counted, 1 or 2."""
        return 2 if self is TreeVariety.PLANE else 1
