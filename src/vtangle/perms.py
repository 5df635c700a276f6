"""Permutations on the edge label set ``{0, ..., 2n-1}``.

A permutation is stored as a tuple of images: ``p[i]`` is the image of
``i``.  All higher layers build on three permutations of this kind: the
white-face permutation ``sigma``, the black-face permutation
``tau = sigma o rho``, and the fixed pairing ``rho`` that swaps ``2a``
with ``2a+1``.

>>> sigma = parse_perm("3 4 1 6 2 7 0 5")
>>> cycles(sigma)
((0, 3, 6), (1, 4, 2), (5, 7))
>>> compose(sigma, rho_perm(8))[0]
4
"""

from __future__ import annotations

from collections.abc import Iterable

Perm = tuple[int, ...]


def check_perm(p: Iterable[int]) -> Perm:
    """Validate that ``p`` is a bijection of ``{0..len(p)-1}`` and return it
    as a tuple.  Raises ``ValueError`` otherwise."""
    t = tuple(p)
    if sorted(t) != list(range(len(t))):
        raise ValueError(f"not a permutation of 0..{len(t) - 1}: {t}")
    return t


def identity(size: int) -> Perm:
    return tuple(range(size))


def compose(p: Perm, q: Perm) -> Perm:
    """Right-to-left composition: ``compose(p, q)(i) = p(q(i))``.

    >>> compose((1, 2, 0), (0, 2, 1))
    (1, 0, 2)
    """
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def conjugate(g: Perm, p: Perm) -> Perm:
    """Return ``g o p o g^{-1}`` (the relabelling of ``p`` by ``g``).

    >>> conjugate((1, 0, 2), (1, 2, 0))
    (2, 0, 1)
    """
    if len(g) != len(p):
        raise ValueError(f"size mismatch: {len(g)} vs {len(p)}")
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[g[i]] = g[x]
    return tuple(out)


def cycles(p: Perm) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition, fixed points included.

    Each cycle is rotated to start at its smallest label and the cycles are
    sorted by first element, so the result is a canonical form suitable for
    hashing and printing.

    >>> cycles((1, 0, 2))
    ((0, 1), (2,))
    """
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_count(p: Perm) -> int:
    """Number of cycles of ``p``, fixed points included."""
    seen = [False] * len(p)
    count = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
    return count


def is_involution(p: Perm) -> bool:
    return all(p[p[i]] == i for i in range(len(p)))


def is_fixed_point_free(p: Perm) -> bool:
    return all(p[i] != i for i in range(len(p)))


def rho_perm(size: int) -> Perm:
    """The fixed pairing in normal form: ``2a <-> 2a+1``.

    >>> rho_perm(6)
    (1, 0, 3, 2, 5, 4)
    """
    if size % 2:
        raise ValueError(f"label set must have even size, got {size}")
    return tuple(i ^ 1 for i in range(size))


def pair_normalizer(pairing: Perm) -> Perm:
    """Relabelling ``g`` that carries a fixed-point-free involution onto the
    normal pairing ``2a <-> 2a+1``, i.e. ``g o pairing o g^-1 = rho_perm``.

    Blocks are numbered in order of their smallest member, which makes the
    choice deterministic.

    >>> g = pair_normalizer((3, 2, 1, 0))
    >>> conjugate(g, (3, 2, 1, 0)) == rho_perm(4)
    True
    """
    if not (is_involution(pairing) and is_fixed_point_free(pairing)):
        raise ValueError(f"not a fixed-point-free involution: {pairing}")
    g = [-1] * len(pairing)
    nxt = 0
    for a in range(len(pairing)):
        if g[a] < 0:
            g[a] = nxt
            g[pairing[a]] = nxt + 1
            nxt += 2
    return tuple(g)


def parse_perm(text: str) -> Perm:
    """Parse a space-separated image list, e.g. ``"3 4 1 6 2 7 0 5"``."""
    return check_perm(int(w) for w in text.split())


def format_perm(p: Perm) -> str:
    return " ".join(str(x) for x in p)
