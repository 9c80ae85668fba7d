"""JSON document formats: problem instances, candidate projection fields,
and run reports.

Instances serialise as
    {"dimension": n, "weights": [...], "blocks": [[...], ...],
     "unitary": {"re": [[...]], "im": [[...]]}}
and candidate fields as
    {"breakpoints": [...], "projections": [matrix, ...]}.

Every document is written in one canonical form, byte for byte the text of
``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"``:
sorted keys, two-space indent, non-ASCII escaped, one trailing newline.
Floats are written in their shortest round-trip form, so re-parsing an
emitted document always reproduces the exact values.  With ``indent`` set
the stdlib encodes in pure Python, so :func:`canonical_json` renders a
non-empty list of plain ``int``/``float`` values, or of equal-width
non-empty lists of them (class triples, matrix rows), from one
``%``-format template, formatting a row object that the list repeats only
once, and leaves everything else (strings, bools, None, NaN and
infinities, float subclasses, other keys) to the ``json`` module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .cocycle import PiecewiseMatrixField, validate_projection_field
from .errors import SchemaError
from .numerics import (
    DEFAULT_TOL,
    TolerancePolicy,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
)
from .spaces import BlockAlgebra, BlockPartition, DiscreteSpace

__all__ = [
    "Instance",
    "load_instance",
    "dump_instance",
    "load_projection_field",
    "projection_field_to_json",
    "projection_field_from_json",
    "make_report",
    "canonical_json",
    "write_json",
    "file_digest",
]

@dataclass(frozen=True, eq=False)
class Instance:
    """A weighted space with a block partition and a unitary to factor."""

    space: DiscreteSpace
    partition: BlockPartition
    unitary: np.ndarray

    @property
    def algebra(self) -> BlockAlgebra:
        return BlockAlgebra(space=self.space, partition=self.partition)

    @property
    def n(self) -> int:
        return self.space.n

    def to_json(self) -> dict:
        return {
            "dimension": self.space.n,
            "weights": list(self.space.weights),
            "blocks": [list(b) for b in self.partition.blocks],
            "unitary": matrix_to_json(self.unitary),
        }

    @classmethod
    def from_json(cls, obj, tol: TolerancePolicy = DEFAULT_TOL) -> "Instance":
        if not isinstance(obj, dict):
            raise SchemaError("instance document must be a JSON object")
        for key in ("dimension", "weights", "blocks", "unitary"):
            if key not in obj:
                raise SchemaError(f"instance document is missing '{key}'")
        try:
            n = _integer(obj["dimension"], "dimension")
            space = DiscreteSpace(tuple(float(w) for w in obj["weights"]))
            partition = BlockPartition(
                tuple(tuple(_integer(i, "block entry") for i in b) for b in obj["blocks"])
            )
            unitary = matrix_from_json(obj["unitary"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed instance document: {exc}") from exc
        if space.n != n:
            raise SchemaError(f"dimension {n} does not match {space.n} weights")
        if partition.n != n:
            raise SchemaError(f"blocks cover {partition.n} points, dimension is {n}")
        if unitary.shape != (n, n):
            raise SchemaError(f"unitary has shape {unitary.shape}, expected ({n}, {n})")
        if not is_unitary(unitary, tol):
            raise SchemaError("the 'unitary' field is not unitary at load tolerance")
        return cls(space=space, partition=partition, unitary=unitary)


def _integer(value, what: str) -> int:
    """A JSON integer; bools and floats are rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def load_instance(path, tol: TolerancePolicy = DEFAULT_TOL) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return Instance.from_json(obj, tol)


def dump_instance(instance: Instance, path) -> None:
    write_json(instance.to_json(), path)


def projection_field_to_json(field: PiecewiseMatrixField) -> dict:
    return {
        "breakpoints": list(field.breakpoints),
        "projections": [matrix_to_json(v) for v in field.values],
    }


def projection_field_from_json(obj) -> PiecewiseMatrixField:
    if not isinstance(obj, dict) or "breakpoints" not in obj or "projections" not in obj:
        raise SchemaError("candidate document needs 'breakpoints' and 'projections'")
    try:
        values = tuple(matrix_from_json(m) for m in obj["projections"])
        field = PiecewiseMatrixField(
            breakpoints=tuple(float(b) for b in obj["breakpoints"]),
            values=values,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed candidate document: {exc}") from exc
    return field


def load_projection_field(path) -> PiecewiseMatrixField:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    field = projection_field_from_json(obj)
    validate_projection_field(field)
    return field


def make_report(
    operation: str,
    *,
    passed: bool | None = None,
    inputs: dict | None = None,
    seed: int | None = None,
    residuals: dict | None = None,
    details: dict | None = None,
    warnings: list | tuple = (),
    timestamp: bool = True,
) -> dict:
    """Assemble a run report; deterministic apart from the timestamp field."""
    report: dict = {
        "operation": operation,
        "version": __version__,
        "inputs": inputs or {},
        "seed": seed,
        "residuals": residuals or {},
        "details": details or {},
        "warnings": list(warnings),
    }
    if passed is not None:
        report["pass"] = bool(passed)
    if timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    return report


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\\n"``,
    byte for byte, with lists of plain numbers filled into one template."""
    parts: list[str] = []
    _encode(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


_NUMBERS = {int, float}


def _encode(obj, nl: str, out: list[str]) -> None:
    """Append the canonical text of ``obj``, its lines indented by ``nl``."""
    inner = nl + "  "
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        lead = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, out)
            lead = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        body = _number_rows(obj, inner)
        if body is not None:
            out += ("[" + inner, body, nl + "]")
            return
        lead = "[" + inner
        for value in obj:
            out.append(lead)
            _encode(value, inner, out)
            lead = "," + inner
        out.append(nl + "]")
    else:
        # Scalars, empty containers and dicts with other keys.  ensure_ascii
        # escapes every newline inside strings, so each "\n" here is layout.
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl))


def _number_rows(items, inner: str) -> str | None:
    """Body of a list of plain ints and floats, or of equal-width non-empty
    lists of them, filled into one %-format template; None for any other
    list.  When row objects repeat (class triples from a lookup table), each
    distinct row is formatted once."""
    kinds = set(map(type, items))
    if kinds <= _NUMBERS:
        text = ("," + inner).join(["%r"] * len(items)) % tuple(items)
    elif kinds <= {list, tuple}:
        rows = dict(zip(map(id, items), items))
        widths = set(map(len, rows.values()))
        values = tuple(chain.from_iterable(rows.values()))
        if len(widths) != 1 or 0 in widths or not set(map(type, values)) <= _NUMBERS:
            return None
        deeper = inner + "  "
        row = "[" + deeper + ("," + deeper).join(["%r"] * widths.pop()) + inner + "]"
        if len(rows) == len(items):
            text = ("," + inner).join([row] * len(items)) % values
        else:
            # No number's repr holds a NUL, so it splits the distinct rows apart.
            texts = ("\0".join([row] * len(rows)) % values).split("\0")
            text = ("," + inner).join(map(dict(zip(rows, texts)).__getitem__, map(id, items)))
    else:
        return None
    # repr spells NaN and Infinity "nan" and "inf"; no finite number's repr has an "n".
    return None if "n" in text else text


def write_json(obj, path=None) -> str:
    """Serialise to the canonical form; write to ``path`` or return only."""
    text = canonical_json(obj)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
