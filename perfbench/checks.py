"""Output checks that share no code with the library under test.

Every coloring the benchmark receives, from a solver or from the oracle, is
checked here against a reference graph built during set-up: the coloring
must be total, stay within 1..d, be proper at every vertex and give no edge
a color from its forbidden list. The library's own ``verify_solution`` is one
of the things being measured, so its verdict is compared against this one
rather than trusted.
"""

from __future__ import annotations

import hashlib


class CheckFailed(Exception):
    """A returned output is wrong, or two verdicts on one instance disagree."""


def coloring_violation(edges, d: int, colors, lists) -> str | None:
    """First reason ``colors`` is not a proper list-avoiding d-edge-coloring, or None.

    ``edges`` is a sequence of (u, v) pairs, ``colors`` one color per edge,
    and ``lists`` maps edge index to an iterable of forbidden colors.
    """
    if len(colors) != len(edges):
        return f"{len(colors)} colors for {len(edges)} edges"
    seen: dict[tuple[int, int], int] = {}
    for e, ((u, v), c) in enumerate(zip(edges, colors)):
        if not 1 <= c <= d:
            return f"edge {e} has color {c} outside 1..{d}"
        for w in (u, v):
            other = seen.setdefault((w, c), e)
            if other != e:
                return f"vertex {w} sees color {c} on edges {other} and {e}"
    for e, forbidden in lists.items():
        if colors[e] in forbidden:
            return f"edge {e} wears forbidden color {colors[e]}"
    return None


def require_valid(edges, d: int, colors, lists, what: str) -> None:
    problem = coloring_violation(edges, d, colors, lists)
    if problem is not None:
        raise CheckFailed(f"{what}: {problem}")


def require_agree(ours: bool, theirs: bool, what: str) -> None:
    if ours != theirs:
        raise CheckFailed(f"{what}: library says {theirs}, independent check says {ours}")


class Digest:
    """sha256 over the canonical outputs of one pass, in instance order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, text: str = "") -> None:
        data = f"{label}\n{text}".encode()
        self._h.update(len(data).to_bytes(8, "big"))
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()
