"""JSON documents: the program's one input boundary, and its reports.

Every JSON document the program reads is decoded here.  Instances are
    {"dimension": n, "weights": [...], "blocks": [[...], ...],
     "unitary": {"re": [[...]], "im": [[...]]}},
candidate fields
    {"breakpoints": [...], "projections": [matrix, ...]},
algebra documents {"basis": [matrix, ...]} or {"frame": matrix} (a
``masa embed`` result has a frame), and point functions
{"re": [...], "im": [...]}.  Every number read from them obeys one rule:
a rectangular list of the declared depth whose leaves are plain JSON
numbers (not true/false, strings, null or objects), finite and within
the float range.  ``dimension`` and block entries must be JSON integers,
and instance and algebra matrices must be n x n.  A file that breaks any
of this, or is not JSON, raises ``SchemaError`` (exit 2).  Complex arrays
are filled part by part, keeping every sign bit as written.

Every document is written in one canonical form, byte for byte the text of
``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"``:
sorted keys, two-space indent, non-ASCII escaped, one trailing newline.
Floats are written in their shortest round-trip form, so re-parsing an
emitted document always reproduces the exact values.  With ``indent`` set
the stdlib encodes in pure Python, so :func:`canonical_json` renders a
non-empty list of plain ``int``/``float`` values, or of equal-width
non-empty lists of them (matrix rows; a :class:`Gathered` list formats
each row of its table once), from one ``%``-format template, and leaves
everything else (strings, bools, None, NaN and infinities, float
subclasses, other keys) to the ``json`` module.
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
from .numerics import DEFAULT_TOL, TolerancePolicy, is_unitary
from .spaces import BlockAlgebra, BlockPartition, DiscreteSpace

__all__ = [
    "Instance",
    "Gathered",
    "load_instance",
    "dump_instance",
    "load_projection_field",
    "load_algebra_basis",
    "load_values",
    "matrix_to_json",
    "matrix_from_json",
    "projection_field_from_json",
    "make_report",
    "canonical_json",
    "write_json",
    "file_digest",
]

# Plain JSON numbers: the only leaves the decoder accepts, and the values
# the encoder fills into templates.  bool is a type of its own.
_NUMBERS = {int, float}


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
            space = DiscreteSpace(tuple(_numbers(obj["weights"], 1, "weights").tolist()))
            partition = BlockPartition(
                tuple(tuple(_integer(i, "block entry") for i in b) for b in obj["blocks"])
            )
            unitary = matrix_from_json(obj["unitary"], "unitary")
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed instance document: {exc}") from exc
        if space.n != n:
            raise SchemaError(f"dimension {n} does not match {space.n} weights")
        if partition.n != n:
            raise SchemaError(f"blocks cover {partition.n} points, dimension is {n}")
        if not is_unitary(_square(unitary, n, "unitary"), tol):
            raise SchemaError("the 'unitary' field is not unitary at load tolerance")
        return cls(space=space, partition=partition, unitary=unitary)


@dataclass(frozen=True, eq=False)
class Gathered:
    """The list ``[table[k] for k in index]``, written without building it."""

    table: tuple
    index: np.ndarray


def _integer(value, what: str) -> int:
    """A JSON integer; bools and floats are rejected rather than truncated."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _square(m: np.ndarray, n: int, what: str) -> np.ndarray:
    if m.shape != (n, n):
        raise SchemaError(f"{what} has shape {m.shape}, expected ({n}, {n})")
    return m


def _numbers(value, depth: int, what: str) -> np.ndarray:
    """``value`` as a float array: a rectangular list nested ``depth`` deep
    whose leaves are plain JSON numbers, finite and within the float range."""
    shape, items = [], [value]
    for _ in range(depth):
        if not set(map(type, items)) <= {list}:
            raise SchemaError(f"{what} must be a rectangular list nested {depth} deep")
        widths = set(map(len, items))
        if len(widths) > 1:
            raise SchemaError(f"{what} has rows of unequal length")
        shape.append(widths.pop() if widths else 0)
        items = list(chain.from_iterable(items))
    if not set(map(type, items)) <= _NUMBERS:
        bad = next(x for x in items if type(x) not in _NUMBERS)
        raise SchemaError(f"{what} entries must be JSON numbers, got {bad!r}")
    try:
        array = np.fromiter(items, dtype=float, count=len(items)).reshape(shape)
    except OverflowError as exc:
        raise SchemaError(f"{what} has an integer outside the float range") from exc
    if not np.isfinite(array).all():
        raise SchemaError(f"{what} entries must be finite")
    return array


def _complex(obj, depth: int, what: str) -> np.ndarray:
    """The complex array of {"re": ..., "im": ...}, both nested ``depth`` deep,
    filled part by part: re + 1j * im would drop the sign of some zeros."""
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise SchemaError(f"{what} needs 're' and 'im' arrays")
    re, im = (_numbers(obj[key], depth, f"{what} '{key}'") for key in ("re", "im"))
    if re.shape != im.shape:
        raise SchemaError(f"{what} 're' and 'im' have shapes {re.shape} and {im.shape}")
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def matrix_to_json(m) -> dict:
    """Serialise a complex matrix as separate real and imaginary grids."""
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; raises ``SchemaError`` on bad input."""
    return _complex(obj, 2, what)


def _matrices(items, what: str) -> list[np.ndarray]:
    if type(items) is not list:
        raise SchemaError(f"{what} must be a list of matrices")
    return [matrix_from_json(m, f"{what}[{i}]") for i, m in enumerate(items)]


def _read_json(path):
    """The document in the file at ``path``; text that is not JSON, or that
    nests too deep to parse, raises ``SchemaError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def load_instance(path, tol: TolerancePolicy = DEFAULT_TOL) -> Instance:
    return Instance.from_json(_read_json(path), tol)


def load_algebra_basis(path, n: int) -> np.ndarray:
    """The n x n matrices of an algebra document as one (k, n, n) array: its
    ``basis`` list, or the projections onto the columns of its ``frame``
    (unitarity not checked)."""
    obj = _read_json(path)
    if not isinstance(obj, dict) or ("basis" in obj) == ("frame" in obj):
        raise SchemaError("algebra document needs exactly one of a 'basis' list and a 'frame' matrix")
    if "frame" in obj:
        frame = _square(matrix_from_json(obj["frame"], "frame"), n, "frame")
        return np.stack([np.outer(q, q.conj()) for q in frame.T])
    basis = [_square(m, n, f"basis[{i}]") for i, m in enumerate(_matrices(obj["basis"], "basis"))]
    return np.stack(basis) if basis else np.empty((0, n, n), dtype=complex)


def load_values(path) -> np.ndarray:
    """A function on the points, {"re": [...], "im": [...]}, as a complex vector."""
    return _complex(_read_json(path), 1, "value document")


def dump_instance(instance: Instance, path) -> None:
    write_json(instance.to_json(), path)


def projection_field_from_json(obj) -> PiecewiseMatrixField:
    if not isinstance(obj, dict) or "breakpoints" not in obj or "projections" not in obj:
        raise SchemaError("candidate document needs 'breakpoints' and 'projections'")
    breakpoints = _numbers(obj["breakpoints"], 1, "breakpoints")
    values = _matrices(obj["projections"], "projections")
    try:
        return PiecewiseMatrixField(breakpoints=tuple(breakpoints.tolist()), values=tuple(values))
    except ValueError as exc:
        raise SchemaError(f"malformed candidate document: {exc}") from exc


def load_projection_field(path) -> PiecewiseMatrixField:
    field = projection_field_from_json(_read_json(path))
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
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if passed is not None:
        report["pass"] = bool(passed)
    return report


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\\n"``,
    byte for byte, with lists of plain numbers filled into one template."""
    parts: list[str] = []
    _encode(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


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
    elif isinstance(obj, Gathered):
        # No number's repr holds a NUL, so it splits the table's row texts apart.
        rows = obj.index.size and _number_rows(obj.table, inner, "\0")
        if not rows:  # an empty list, or a table the template cannot render
            return _encode(list(map(obj.table.__getitem__, obj.index.tolist())), nl, out)
        texts = np.array(rows.split("\0"), dtype=object)
        out += ("[" + inner, ("," + inner).join(texts[obj.index].tolist()), nl + "]")
    elif isinstance(obj, (list, tuple)) and obj:
        body = _number_rows(obj, inner, "," + inner)
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


def _number_rows(items, inner: str, sep: str) -> str | None:
    """Texts of a list of plain ints and floats, or of equal-width non-empty
    lists of them, filled into one %-format template and joined by ``sep``;
    None for any other list."""
    kinds = set(map(type, items))
    if kinds <= _NUMBERS:
        text = sep.join(["%r"] * len(items)) % tuple(items)
    elif kinds <= {list, tuple}:
        widths = set(map(len, items))
        values = tuple(chain.from_iterable(items))
        if len(widths) != 1 or 0 in widths or not set(map(type, values)) <= _NUMBERS:
            return None
        deeper = inner + "  "
        row = "[" + deeper + ("," + deeper).join(["%r"] * widths.pop()) + inner + "]"
        text = sep.join([row] * len(items)) % values
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
