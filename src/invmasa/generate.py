"""Random and structured instance generation for the embedding pipeline.

Instances are built in reverse: pick a block structure and a label
permutation whose cycles pair equal-size blocks, draw a Haar-random block
diagonal unitary V0, form the coordinate permutation W from the ascending
within-block bijection, and emit U = V0 W.  By construction, conjugation
by U maps the block algebra onto itself, and the factorisation routine
recovers both the permutation and V0 exactly: both build W with
``embedding._block_bijection``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .documents import Instance
from .embedding import WeightedCompositionOperator, _block_bijection
from .errors import InconsistentSpec
from .spaces import BlockPartition, DiscreteSpace

__all__ = [
    "GeneratedInstance",
    "haar_unitary",
    "build_instance",
    "random_instance",
]


@dataclass(frozen=True, eq=False)
class GeneratedInstance:
    instance: Instance
    pi: tuple[int, ...]
    seed: int | None


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


def _validate_structure(blocks, cycles) -> tuple[int, ...]:
    labels = [label for cycle in cycles for label in cycle]
    if sorted(labels) != list(range(len(blocks))):
        raise InconsistentSpec("cycles must partition the block labels")
    for cycle in cycles:
        sizes = {len(blocks[label]) for label in cycle}
        if len(sizes) > 1:
            raise InconsistentSpec(
                f"cycle {tuple(cycle)} mixes block sizes {sorted(sizes)}; "
                "conjugate blocks must have equal size"
            )
    pi = [0] * len(blocks)
    for cycle in cycles:
        for pos, label in enumerate(cycle):
            pi[label] = cycle[(pos + 1) % len(cycle)]
    return tuple(pi)


def build_instance(
    weights,
    blocks,
    cycles,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> GeneratedInstance:
    """Build an instance from an explicit structure.

    ``blocks`` is a list of index lists; ``cycles`` a list of label cycles.
    Raises ``InconsistentSpec`` when the cycles do not partition the labels
    or pair blocks of unequal sizes.
    """
    space = DiscreteSpace(tuple(float(w) for w in weights))
    partition = BlockPartition(tuple(tuple(b) for b in blocks))
    pi = _validate_structure(partition.blocks, cycles)
    if rng is None:
        rng = np.random.default_rng(seed)
    n = space.n
    v0 = np.zeros((n, n), dtype=complex)
    for block in partition.blocks:
        idx = list(block)
        v0[np.ix_(idx, idx)] = haar_unitary(len(idx), rng)
    u = v0 @ WeightedCompositionOperator(_block_bijection(partition.blocks, pi)).matrix()
    instance = Instance(space=space, partition=partition, unitary=u)
    return GeneratedInstance(instance=instance, pi=pi, seed=seed)


def random_instance(seed: int) -> GeneratedInstance:
    """Random instance with dimension at most 12 and blocks of size at
    most 4.

    Cycle structures are drawn as (block size, cycle length) pairs until
    the dimension budget is spent or an early stop fires; labels inside a
    cycle are shuffled so cycle canonicalisation gets exercised.
    """
    rng = np.random.default_rng(seed)
    structures: list[tuple[int, int]] = []
    remaining = 12
    while remaining > 0:
        if structures and rng.random() < 0.3:
            break
        size = int(rng.integers(1, min(4, remaining) + 1))
        length = int(rng.integers(1, remaining // size + 1))
        structures.append((size, length))
        remaining -= size * length
    blocks = []
    cycles = []
    point = 0
    for size, length in structures:
        labels = []
        for _ in range(length):
            blocks.append(tuple(range(point, point + size)))
            labels.append(len(blocks) - 1)
            point += size
        order = rng.permutation(len(labels))
        cycles.append(tuple(labels[i] for i in order))
    n = point
    weights = rng.uniform(0.5, 2.0, size=n)
    return build_instance(weights, blocks, cycles, seed=seed, rng=rng)
