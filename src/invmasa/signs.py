"""Exact finite automaton on sign triples modulo a global flip.

States are triples from {-1, 0, 1}^3 identified with their negatives;
canonical representatives put the first nonzero component at +1, leaving
14 classes.  Each circle interval acts on classes by an exact linear
substitution:

    interval 1: (p, q, r) -> (q, -p, r)
    interval 2: (p, q, r) -> (r, p, q)
    interval 3: identity

The action of interval 1 has order four and that of interval 2 order
three, so an itinerary word 1 2 2 2 3...3 acts like interval 1 alone.
All 14-entry transition tables are precomputed at import; everything in
this module is integer-exact.
"""

from __future__ import annotations

from .errors import WrongStratum

__all__ = [
    "SignClass",
    "canonicalize",
    "ALL_CLASSES",
    "interval_action",
    "INTERVAL_ACTIONS",
    "SUBSTITUTION_MATRICES",
    "zero_count",
    "STRATA",
    "one_zero_label",
    "zero_free_label",
    "ONE_ZERO_CLASSES",
    "ZERO_FREE_CLASSES",
    "word_action",
    "signum",
    "sign_profile",
]

SignClass = tuple[int, int, int]


def _validate(triple) -> SignClass:
    t = tuple(int(x) for x in triple)
    if len(t) != 3 or any(x not in (-1, 0, 1) for x in t):
        raise ValueError(f"not a sign triple: {triple!r}")
    return t  # type: ignore[return-value]


def canonicalize(triple) -> SignClass:
    """Class representative with the first nonzero component at +1."""
    t = _validate(triple)
    for x in t:
        if x != 0:
            return t if x > 0 else (-t[0], -t[1], -t[2])
    return t


# Rows of the integer matrix M_j of each substitution: M_j (p, q, r).
SUBSTITUTION_MATRICES: dict[int, tuple[SignClass, SignClass, SignClass]] = {
    1: ((0, 1, 0), (-1, 0, 0), (0, 0, 1)),
    2: ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    3: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


def _substitute(j: int, t: SignClass) -> SignClass:
    return tuple(sum(m * x for m, x in zip(row, t)) for row in SUBSTITUTION_MATRICES[j])  # type: ignore[return-value]


ALL_CLASSES: tuple[SignClass, ...] = tuple(
    sorted(
        {
            canonicalize((p, q, r))
            for p in (-1, 0, 1)
            for q in (-1, 0, 1)
            for r in (-1, 0, 1)
        }
    )
)

INTERVAL_ACTIONS: dict[int, dict[SignClass, SignClass]] = {
    j: {c: canonicalize(_substitute(j, c)) for c in ALL_CLASSES} for j in (1, 2, 3)
}


def interval_action(j: int, cls) -> SignClass:
    """Image of a sign class under the substitution of interval ``j``.

    Well defined on classes: the substitutions are linear, so they commute
    with the global flip.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"interval index must be 1, 2 or 3, got {j}")
    return INTERVAL_ACTIONS[j][canonicalize(cls)]


def zero_count(cls) -> int:
    """Number of zero components; constant on classes and preserved by all
    interval actions."""
    return sum(1 for x in canonicalize(cls) if x == 0)


STRATA: dict[int, tuple[SignClass, ...]] = {
    k: tuple(c for c in ALL_CLASSES if zero_count(c) == k) for k in (0, 1, 2, 3)
}


def one_zero_label(cls) -> int:
    """Label 1..4 on classes with exactly one zero component.

    1: zero in the last slot, product of the others +1;
    2: zero in the last slot, product of the others -1;
    3: zero in the middle slot;  4: zero in the first slot.
    The products are flip-invariant, so the labels are class functions.
    """
    c = canonicalize(cls)
    if zero_count(c) != 1:
        raise WrongStratum(f"{c} does not have exactly one zero component")
    p, q, r = c
    if r == 0:
        return 1 if p * q == 1 else 2
    if q == 0:
        return 3
    return 4


def zero_free_label(cls) -> int:
    """Label 1..4 on zero-free classes by the sign pair (p*r, q*r):
    (+,+) -> 1, (+,-) -> 2, (-,-) -> 3, (-,+) -> 4."""
    c = canonicalize(cls)
    if zero_count(c) != 0:
        raise WrongStratum(f"{c} has a zero component")
    p, q, r = c
    pair = (p * r, q * r)
    return {(1, 1): 1, (1, -1): 2, (-1, -1): 3, (-1, 1): 4}[pair]


ONE_ZERO_CLASSES: dict[int, tuple[SignClass, ...]] = {
    label: tuple(c for c in STRATA[1] if one_zero_label(c) == label)
    for label in (1, 2, 3, 4)
}

ZERO_FREE_CLASSES: dict[int, tuple[SignClass, ...]] = {
    label: tuple(c for c in STRATA[0] if zero_free_label(c) == label)
    for label in (1, 2, 3, 4)
}


def word_action(word) -> dict[SignClass, SignClass]:
    """Combined class action of an itinerary word, first letter applied
    first, as a full 14-entry table."""
    table = {c: c for c in ALL_CLASSES}
    for j in word:
        if j not in (1, 2, 3):
            raise ValueError(f"word letters must be 1, 2 or 3, got {j}")
        table = {c: INTERVAL_ACTIONS[j][v] for c, v in table.items()}
    return table


def signum(x: float, zero_tol: float = 0.0) -> int:
    """Sign of x with an optional dead zone around zero."""
    if abs(x) <= zero_tol:
        return 0
    return 1 if x > 0.0 else -1


def sign_profile(d: float, c: float, s: float, zero_tol: float = 0.0) -> SignClass:
    """Canonical sign class of three real components.

    The default dead zone is exact zero, which is appropriate for
    analytically produced inputs; callers propagating computed values pass
    a positive tolerance so floating noise cannot change the stratum.
    """
    return canonicalize((signum(d, zero_tol), signum(c, zero_tol), signum(s, zero_tol)))
