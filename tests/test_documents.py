"""The canonical JSON encoder against its oracle, the stdlib's ``json.dumps``,
and loads that keep every bit of what was written."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmasa.documents
from invmasa.cli import main_cex, main_masa
from invmasa.documents import Gathered, canonical_json

A_STR = repr(math.sqrt(2.0) / 8.0)
NAN, INF = float("nan"), float("inf")


def expand(obj):
    """A ``Gathered`` list as the plain list it stands for; any other value
    raises the stdlib's own TypeError."""
    if isinstance(obj, Gathered):
        return [obj.table[int(k)] for k in obj.index]
    return json.JSONEncoder().default(obj)


def oracle(obj) -> str:
    """The canonical form by definition: the stdlib's pure-Python encoder."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True, default=expand) + "\n"


SHARED = [1, -1, 0]

TRAPS = [
    # one row object listed many times, next to equal rows of other types
    [SHARED, SHARED, (1, -1, 0), SHARED],
    [(1, 2), (1.0, 2), (True, 2), (1, 2)],
    [[-0.0, 1.0], [0.0, 1.0]] * 3,
    [SHARED, SHARED, [NAN, 0, 1]],
    [SHARED, SHARED, [1, 2]],
    # a bool is an int, but prints as true/false
    True,
    [True, 1],
    [[True, 1], [0, 1]],
    [[1, 2], [3, False]],
    # signed zero, tiny and huge floats, ints beyond 64 bits
    -0.0,
    [-0.0, 0.0, 1e-300, 5e-324, 1e16, 1.7976931348623157e308],
    [[-0.0, 1e-300], [1e16, 2**64]],
    [2**63, -(2**63) - 1, 10**30],
    # repr says nan/inf, JSON says NaN/Infinity
    NAN,
    [NAN],
    [1.0, -INF],
    [[1.0, INF], [-INF, 2.0]],
    [[NAN, 0.0]],
    {"x": NAN, "y": [INF]},
    # empty containers, empty and ragged rows, tuples
    [],
    [[], []],
    [[1], [2, 3]],
    [[1, 2], [3]],
    [[1, 2], 3],
    ((1, 2), (3, 4)),
    [(1, 2), [3, 4]],
    (1,),
    [[[1, 2]], [[3, 4]]],
    {},
    {"a": [], "b": {}, "c": [[]]},
    # float subclasses print as floats
    np.float64(0.1),
    [np.float64(0.1), 1.0],
    [[np.float64(1e16), 2.0], [3.0, 4.0]],
    # strings, escapes and keys
    "line\nbreak \"quoted\" \\ \t é ü ∑ \U0001f600",
    {"é": ["ü"], "\n": None, "": 0, "b": 1, "a": 2},
    {3: "a", 1: "b"},
    {2.5: 1, 0.5: 2},
    {"outer": {3: "a", 1: [1, {"k": None}]}, "list": [{2: [3, 4]}]},
    [None, [None], [[None, 1]]],
    [["a", "b"], ["c", "d"]],
    {"nested": {"re": [[0.1, -0.2], [0.3, 4e-17]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
]


@pytest.mark.parametrize("obj", TRAPS, ids=range(len(TRAPS)))
def test_traps_match_the_oracle(obj):
    assert canonical_json(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj", [np.int64(3), [np.int64(3)], [[np.int64(3), 1]], {"a": np.int64(1)}, {1, 2}, {"a": 1, 2: 3}]
)
def test_unserialisable_values_raise_like_the_oracle(obj):
    with pytest.raises(TypeError) as expected:
        oracle(obj)
    with pytest.raises(TypeError) as got:
        canonical_json(obj)
    assert str(got.value) == str(expected.value)


CLASSES = ((-1, 0, 1), (0, 0, 0), (1, 1, 1), (1, -1, 0))
GATHERED = [
    Gathered(CLASSES, np.uint8([0, 3, 3, 1, 0, 2])),
    Gathered(CLASSES, np.uint8([2])),
    Gathered(CLASSES, np.uint8([])),
    Gathered((), np.arange(0)),
    Gathered((0.5, -0.0, 7, 1e300), np.array([3, 1, 1, 0, 2])),
    Gathered(([-0.0, 1e-300], [1e16, 2**64]), np.array([1, 0, 1])),
    # tables the template cannot render: NaN, infinity, bools, ragged and empty rows
    Gathered(((1, 2), (NAN, 0)), np.uint8([0, 1, 0])),
    Gathered((1.0, -INF), np.uint8([1, 1])),
    Gathered(((True, 1), (0, 1)), np.uint8([1, 0])),
    Gathered(((1,), (2, 3)), np.uint8([1, 0, 1])),
    Gathered(((), ()), np.uint8([1, 0])),
    Gathered(("a", None), np.uint8([1, 0])),
    {"classes": Gathered(CLASSES, np.uint8([1, 2])), "expected": [Gathered(CLASSES, np.uint8([3]))]},
]


@pytest.mark.parametrize("obj", GATHERED, ids=range(len(GATHERED)))
def test_gathered_lists_match_the_oracle(obj):
    assert canonical_json(obj) == oracle(obj)


NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([-0.0, 1e-300, 1e16, NAN, INF, -INF]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(), st.floats().map(np.float64))
ROW = st.one_of(st.lists(NUMBERS, max_size=4), st.tuples(NUMBERS, NUMBERS))
ROW_LISTS = st.one_of(
    # equal widths, the templated shape
    st.integers(0, 4).flatmap(
        lambda w: st.lists(st.lists(NUMBERS, min_size=w, max_size=w), max_size=6)
    ),
    # a few row objects, each listed many times
    st.integers(1, 3).flatmap(
        lambda w: st.lists(st.lists(NUMBERS, min_size=w, max_size=w), min_size=1, max_size=3)
    ).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=12)),
    # mixed widths, bools among the numbers
    st.lists(st.one_of(ROW, st.lists(st.one_of(NUMBERS, st.booleans()), max_size=3)), max_size=6),
)
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, ROW_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_generated_documents_match_the_oracle(obj):
    assert canonical_json(obj) == oracle(obj)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(lambda w: st.lists(st.lists(NUMBERS, min_size=w, max_size=w), min_size=1, max_size=5)),
    st.lists(st.integers(0, 4), max_size=30),
)
def test_generated_gathered_lists_match_the_oracle(table, picks):
    obj = {"rows": Gathered(tuple(table), np.array([k % len(table) for k in picks], dtype=np.uint8))}
    assert canonical_json(obj) == oracle(obj)


# Every report kind the two CLIs write, on small inputs.
REPORTS = {
    "embed": lambda d: main_masa(["embed", "--input", d["instance"], "--output", d["out"]]),
    "verify": lambda d: main_masa(
        ["verify", "--input", d["instance"], "--algebra", d["result"], "--output", d["out"]]
    ),
    "factor": lambda d: main_masa(["factor", "--input", d["weighted"], "--output", d["out"]]),
    "gen": lambda d: main_masa(
        ["gen", "--blocks", "2,1,2", "--cycles", "0,2;1", "--weights", "1,2,3,4,5", "--output", d["out"]]
    ),
    "match": lambda d: main_masa(["match", "--f", d["f"], "--g", d["g"], "--output", d["out"]]),
    "orbit": lambda d: main_cex(
        ["orbit", "--a", A_STR, "--t0", "0.1", "--steps", "500", "--stats", "--output", d["out"]]
    ),
    "defect": lambda d: main_cex(
        ["defect", "--a", A_STR, "--candidate", d["candidate"], "--steps", "500", "--output", d["out"]]
    ),
    "propagate": lambda d: main_cex(
        ["propagate", "--a", A_STR, "--d", "0.3", "--e", "0.7", "--t0", "0.2", "--steps", "500", "--output", d["out"]]
    ),
    "return-map": lambda d: main_cex(["return-map", "--a", A_STR, "--samples", "200", "--output", d["out"]]),
    "combinatorics": lambda d: main_cex(["combinatorics", "--output", d["out"]]),
}


@pytest.fixture()
def cli_inputs(tmp_path):
    d = {name: str(tmp_path / f"{name}.json") for name in ("instance", "weighted", "result", "out")}
    assert main_masa(["gen", "--blocks", "2,2,1", "--cycles", "0,1;2", "--seed", "3", "--output", d["instance"]]) == 0
    assert main_masa(
        ["gen", "--blocks", "2,2", "--cycles", "0,1", "--weights", "0.5,1.5,2.5,0.7", "--output", d["weighted"]]
    ) == 0
    assert main_masa(["embed", "--input", d["instance"], "--output", d["result"]]) == 0
    files = {
        "candidate": {
            "breakpoints": [0.0, 0.4],
            "projections": [
                {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
                {"re": [[0.5, 0.5], [0.5, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            ],
        },
        "f": {"re": [1.0, 1.0, 2.0], "im": [0.0, 0.5, 0.0]},
        "g": {"re": [2.0, 1.0, 1.0], "im": [0.0, 0.0, 0.5]},
    }
    for name, obj in files.items():
        d[name] = str(tmp_path / f"{name}.json")
        with open(d[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return d


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_every_cli_report_matches_the_oracle(kind, cli_inputs, monkeypatch):
    written = []
    encode = invmasa.documents.canonical_json

    def spy(obj):
        text = encode(obj)
        written.append((oracle(obj), text))
        return text

    monkeypatch.setattr(invmasa.documents, "canonical_json", spy)
    assert REPORTS[kind](cli_inputs) == 0
    assert written
    for expected, text in written:
        assert text == expected
    with open(cli_inputs["out"], encoding="utf-8") as fh:
        assert fh.read() in {expected for expected, _ in written}


# Finite doubles with both zeros drawn often: re + 1j * im loses the sign of
# a -0.0 imaginary part, and of a -0.0 real part next to a nonzero one.
SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


def signed_grid(data, shape):
    count = 2 * int(np.prod(shape))
    parts = np.array(data.draw(st.lists(SIGNED, min_size=count, max_size=count)), dtype=float)
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = parts.reshape(2, *shape)
    return m


class TestExactLoads:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_matrix_roundtrip_keeps_sign_bits(self, rows, cols, data):
        m = signed_grid(data, (rows, cols))
        doc = invmasa.documents.matrix_to_json(m)
        for obj in (doc, json.loads(canonical_json(doc))):
            assert invmasa.documents.matrix_from_json(obj).tobytes() == m.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_value_load_keeps_sign_bits(self, tmp_path_factory, n, data):
        f = signed_grid(data, (n,))
        path = tmp_path_factory.getbasetemp() / "signed-values.json"
        invmasa.documents.write_json({"re": f.real.tolist(), "im": f.imag.tolist()}, path)
        assert invmasa.documents.load_values(path).tobytes() == f.tobytes()
