"""Weighted finite point sets, block partitions, and the multiplication
algebras they carry.

A block partition of the points determines the abelian algebra of
multiplication operators by functions constant on each block; its matrix
basis is the family of 0/1 block-indicator diagonals.  All matrices are
taken with respect to the orthonormalised point basis, which is what makes
multiplication operators plain diagonals regardless of the point masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, LengthMismatch
from .numerics import (
    DEFAULT_TOL,
    TolerancePolicy,
    _square_family,
    commutant_dimension,
    max_norm,
    span_residual,
    span_rows,
)

__all__ = [
    "DiscreteSpace",
    "BlockPartition",
    "BlockAlgebra",
    "MasaCheck",
    "masa_check",
    "block_masa_check",
    "multiplicity_match",
]


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite point set 0..n-1 with strictly positive point masses."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 1:
            raise ValueError("a space needs at least one point")
        ws = tuple(float(w) for w in self.weights)
        if any(not np.isfinite(w) or w <= 0.0 for w in ws):
            raise ValueError("point masses must be finite and positive")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint nonempty index blocks covering 0..n-1.

    Block labels are positions in the ``blocks`` tuple; indices inside a
    block are kept in ascending order.  ``labels`` is the read-only point
    label vector: ``labels[x]`` is the label of the block holding point x.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("partition needs at least one block")
        norm = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        seen: set[int] = set()
        for b in norm:
            if not b:
                raise ValueError("blocks must be nonempty")
            if seen.intersection(b):
                raise ValueError("blocks must be disjoint")
            seen.update(b)
        if seen != set(range(len(seen))):
            raise ValueError("blocks must cover 0..n-1 with no gaps")
        object.__setattr__(self, "blocks", norm)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @cached_property
    def labels(self) -> np.ndarray:
        labels = np.empty(self.n, dtype=int)
        for j, b in enumerate(self.blocks):
            labels[list(b)] = j
        labels.setflags(write=False)
        return labels


@dataclass(frozen=True)
class BlockAlgebra:
    """The algebra of multiplication operators constant on each block."""

    space: DiscreteSpace
    partition: BlockPartition

    def __post_init__(self) -> None:
        if self.space.n != self.partition.n:
            raise DimensionMismatch(
                f"partition covers {self.partition.n} points, space has {self.space.n}"
            )

    @property
    def n(self) -> int:
        return self.space.n


@dataclass(frozen=True)
class MasaCheck:
    """Outcome of the maximal-abelian test for a spanned family."""

    rank: int
    commutant_dimension: int
    unital_residual: float
    selfadjoint_residual: float
    abelian_residual: float
    eps_eq: float

    @property
    def ok(self) -> bool:
        return (
            self.commutant_dimension == self.rank
            and self.unital_residual <= self.eps_eq
            and self.selfadjoint_residual <= self.eps_eq
            and self.abelian_residual <= self.eps_eq
        )


def masa_check(basis, n: int, tol: TolerancePolicy = DEFAULT_TOL) -> MasaCheck:
    """Test whether the span of ``basis`` is a maximal abelian self-adjoint
    algebra in the n-by-n matrices.

    ``basis`` (a list or a (k, n, n) stack) is validated once; the rows of
    one SVD give the rank and the distances of the identity and of the
    adjoints from the span.  Maximality is the commutant criterion: the
    commutant of the family must have the same linear dimension as the
    family's span (for a true masa this shared dimension is ``n``).
    """
    stack = _square_family(basis, n)
    rows = span_rows(stack, tol)
    abelian = max(
        (max_norm(x @ stack[i + 1 :] - stack[i + 1 :] @ x) for i, x in enumerate(stack)), default=0.0
    )
    return MasaCheck(
        rank=len(rows),
        commutant_dimension=commutant_dimension(stack, n, tol),
        unital_residual=span_residual(np.eye(n, dtype=complex), rows),
        selfadjoint_residual=span_residual(stack.conj().transpose(0, 2, 1), rows),
        abelian_residual=abelian,
        eps_eq=tol.eps_eq,
    )


def block_masa_check(algebra: BlockAlgebra, tol: TolerancePolicy = DEFAULT_TOL) -> MasaCheck:
    """:func:`masa_check` of a block algebra, read off its partition.

    The block indicators are exact 0/1 diagonals: they span a unital,
    self-adjoint, abelian algebra of rank k (zero residuals), whose
    commutant is the block-diagonal matrices, of dimension sum |b|^2.
    """
    blocks = algebra.partition.blocks
    return MasaCheck(
        rank=len(blocks),
        commutant_dimension=sum(len(b) ** 2 for b in blocks),
        unital_residual=0.0,
        selfadjoint_residual=0.0,
        abelian_residual=0.0,
        eps_eq=tol.eps_eq,
    )


def multiplicity_match(f, g, value_tol: float = 0.0):
    """Find a point bijection ``sigma`` with ``g[x] == f[sigma[x]]``.

    Returns the bijection as a tuple, or ``None`` when the value multisets
    of ``f`` and ``g`` differ (some value occurs with different
    multiplicity, mirroring unequal eigenspace dimensions of the two
    multiplication operators).

    Values are compared with exact complex equality by default; a positive
    ``value_tol`` switches to chain clustering for inputs that were
    computed rather than given: in lexicographic real/imag order, a value
    within ``value_tol`` of its predecessor shares its cluster, and a NaN
    never does.  Equal values are paired in ascending point order, so the
    output is deterministic.  ``value_tol`` must be finite and non-negative.
    """
    if not 0.0 <= value_tol < np.inf:
        raise ValueError(f"value_tol must be finite and non-negative, got {value_tol!r}")
    fv = np.asarray(f, dtype=complex)
    gv = np.asarray(g, dtype=complex)
    if fv.shape != gv.shape or fv.ndim != 1:
        raise LengthMismatch("f and g must be equal-length value tuples")
    values = np.concatenate([fv, gv])
    order = np.lexsort((values.imag, values.real))
    ordered = values[order]
    starts = np.zeros(len(values), dtype=int)
    if value_tol > 0.0:
        starts[1:] = ~(np.abs(np.diff(ordered)) <= value_tol)
    else:
        starts[1:] = ordered[1:] != ordered[:-1]
    keys = np.empty_like(starts)
    keys[order] = np.cumsum(starts)
    f_keys, g_keys = np.split(keys, 2)
    f_order = np.argsort(f_keys, kind="stable")
    g_order = np.argsort(g_keys, kind="stable")
    if not np.array_equal(f_keys[f_order], g_keys[g_order]):
        return None
    sigma = np.empty_like(f_order)
    sigma[g_order] = f_order
    return tuple(sigma.tolist())
