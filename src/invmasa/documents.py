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
non-empty lists of them (matrix rows), from one ``%``-format template, and
leaves everything else (strings, bools, None, NaN and infinities, float
subclasses, other keys) to the ``json`` module.  The rows of a
:class:`Gathered` list's table are encoded once each, by the same encoder.  A 1-D numpy integer array
is written as the list of its values.  The text comes in slices, ``REPORT_SLICE``
rows of a ``Gathered`` list or an integer array at a time: :func:`write_json` writes
each as it comes, so no report is held whole, and :func:`canonical_json` joins them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .cocycle import PiecewiseMatrixField
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
    "make_report",
    "canonical_json",
    "Written",
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


def load_projection_field(path) -> PiecewiseMatrixField:
    """The candidate field in the file at ``path``, its pieces decoded as one (pieces, 2, 2)
    array: every 're' grid in one call and every 'im' grid in another.  It is not checked
    to be a field of projections (``cocycle.validate_projection_field``)."""
    obj = _read_json(path)
    if not isinstance(obj, dict) or "breakpoints" not in obj or "projections" not in obj:
        raise SchemaError("candidate document needs 'breakpoints' and 'projections'")
    breakpoints, pieces = _numbers(obj["breakpoints"], 1, "breakpoints"), obj["projections"]
    try:
        if type(pieces) is not list:
            raise TypeError
        values = _complex({key: [m[key] for m in pieces] for key in ("re", "im")}, 3, "projections")
    except (SchemaError, TypeError, KeyError):
        _matrices(pieces, "projections")  # names the first bad piece, as a decode piece by piece does
        raise
    try:
        return PiecewiseMatrixField(breakpoints=tuple(breakpoints.tolist()), values=values)
    except ValueError as exc:
        raise SchemaError(f"malformed candidate document: {exc}") from exc


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
    return "".join([*_encode(obj, "\n"), "\n"])


REPORT_SLICE = 2048  # rows of a Gathered list or an integer array in one slice of the text


def _encode(obj, nl: str):
    """Yield the canonical text of ``obj``, its lines indented by ``nl``, in slices."""
    inner = nl + "  "
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        lead = "{" + inner
        for key, value in sorted(obj.items()):
            yield lead + encode_basestring_ascii(key) + ": "
            yield from _encode(value, inner)
            lead = "," + inner
        yield nl + "}"
    elif isinstance(obj, Gathered):
        texts = np.array(["".join(_encode(row, inner)) for row in obj.table], dtype=object)
        yield from _slices(obj.index, lambda part: ("," + inner).join(texts[part].tolist()), nl)
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iu":
        yield from _slices(obj, lambda part: _number_rows(part.tolist(), inner, "," + inner), nl)
    elif isinstance(obj, (list, tuple)) and obj:
        body = _number_rows(obj, inner, "," + inner)
        if body is not None:
            yield from ("[" + inner, body, nl + "]")
            return
        lead = "[" + inner
        for value in obj:
            yield lead
            yield from _encode(value, inner)
            lead = "," + inner
        yield nl + "]"
    else:
        # Scalars, empty containers and dicts with other keys.  ensure_ascii
        # escapes every newline inside strings, so each "\n" here is layout.
        yield json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)


def _slices(index: np.ndarray, render, nl: str):
    """Yield the list of ``len(index)`` rows, ``render`` giving ``REPORT_SLICE`` at a time."""
    for lo in range(0, index.size, REPORT_SLICE):
        yield ("," if lo else "[") + nl + "  " + render(index[lo : lo + REPORT_SLICE])
    yield nl + "]" if index.size else "[]"


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


@dataclass(frozen=True)
class Written:
    """What :func:`write_json` wrote: its ``path`` (None: stdout) and ``size`` in bytes, its ``len()``."""

    path: object
    size: int

    def __len__(self) -> int:
        return self.size


def write_json(obj, path=None) -> Written:
    """Write the canonical form to ``path``, or to stdout, each slice as it is encoded."""
    size = 0
    with open(path, "w", encoding="utf-8") if path is not None else nullcontext(sys.stdout) as fh:
        for text in chain(_encode(obj, "\n"), "\n"):
            fh.write(text)
            size += len(text)
        fh.flush()  # stdout too: a failed write raises here, inside the command
    return Written(path, size)


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
