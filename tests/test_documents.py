"""The canonical JSON encoder against its oracle, the stdlib's ``json.dumps``,
and loads that keep every bit of what was written."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invmasa.documents
import invmasa.cli
from invmasa.cli import main_cex, main_masa
from invmasa.documents import Gathered, canonical_json

A_STR = repr(math.sqrt(2.0) / 8.0)
NAN, INF = float("nan"), float("inf")


def expand(obj):
    """A ``Gathered`` list or a 1-D integer array as the plain list it stands
    for; any other value raises the stdlib's own TypeError."""
    if isinstance(obj, Gathered):
        return [obj.table[int(k)] for k in obj.index]
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iu":
        return [int(k) for k in obj]
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
    "obj",
    [
        np.int64(3),
        [np.int64(3)],
        [[np.int64(3), 1]],
        {"a": np.int64(1)},
        {1, 2},
        {"a": 1, 2: 3},
        # only 1-D integer arrays are lists
        np.array([1.0]),
        np.zeros((2, 2), dtype=int),
        np.array([True]),
        {"a": np.array([0.5])},
    ],
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


# Every report kind the two CLIs write, on small inputs, without --output.
# gen writes its instance to --output and its summary to stdout.
REPORTS = {
    "embed": (main_masa, lambda d: ["embed", "--input", d["instance"]]),
    "verify": (main_masa, lambda d: ["verify", "--input", d["instance"], "--algebra", d["result"]]),
    "factor": (main_masa, lambda d: ["factor", "--input", d["weighted"]]),
    "gen": (
        main_masa,
        lambda d: ["gen", "--blocks", "2,1,2", "--cycles", "0,2;1", "--weights", "1,2,3,4,5", "--output", d["out"]],
    ),
    "match": (main_masa, lambda d: ["match", "--f", d["f"], "--g", d["g"]]),
    "orbit": (main_cex, lambda d: ["orbit", "--a", A_STR, "--t0", "0.1", "--steps", "500", "--stats"]),
    "defect": (main_cex, lambda d: ["defect", "--a", A_STR, "--candidate", d["candidate"], "--steps", "500"]),
    "propagate": (
        main_cex,
        lambda d: ["propagate", "--a", A_STR, "--d", "0.3", "--e", "0.7", "--t0", "0.2", "--steps", "500"],
    ),
    "return-map": (main_cex, lambda d: ["return-map", "--a", A_STR, "--samples", "200"]),
    "combinatorics": (main_cex, lambda d: ["combinatorics"]),
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


@pytest.mark.parametrize("to_file", (True, False), ids=("output", "stdout"))
@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_every_cli_report_matches_the_oracle(kind, to_file, cli_inputs, monkeypatch, capsys):
    written = []
    write = invmasa.documents.write_json

    def spy(obj, path=None):
        expected = oracle(obj)
        record = write(obj, path)
        assert len(record) == len(expected.encode())
        written.append((path, expected))
        return record

    for module in (invmasa.cli, invmasa.documents):
        monkeypatch.setattr(module, "write_json", spy)
    main, argv = REPORTS[kind]
    output = ["--output", cli_inputs["out"]] if to_file and kind != "gen" else []
    capsys.readouterr()
    assert main(argv(cli_inputs) + output) == 0
    stdout = capsys.readouterr().out
    paths = [path for path, _ in written]
    assert paths == ([cli_inputs["out"], None] if kind == "gen" else [cli_inputs["out"] if to_file else None])
    for path, expected in written:
        if path is None:
            assert stdout == expected
        else:
            with open(path, "rb") as fh:
                assert fh.read() == expected.encode()
    assert stdout or to_file


STEP_KINDS = st.sampled_from([np.uint8, np.uint32, np.int64])


@pytest.mark.parametrize("size", (1, 2, 3))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_slices_join_to_the_oracle(size, data, tmp_path_factory):
    # lists of 0 to 3 slices and one row, each slice boundary among them
    lengths = st.integers(0, 3 * size + 1)
    table = data.draw(st.sampled_from([CLASSES, (0.5, -0.0, 7, 1e300), ((1, 2), (NAN, 0))]))
    picks = data.draw(lengths.flatmap(lambda n: st.lists(st.integers(0, len(table) - 1), min_size=n, max_size=n)))
    kind = data.draw(STEP_KINDS)
    steps = data.draw(
        lengths.flatmap(lambda n: st.lists(st.integers(0, int(np.iinfo(kind).max)), min_size=n, max_size=n))
    )
    obj = {
        "classes": Gathered(table, np.array(picks, dtype=np.uint8)),
        "nested": [{"steps": np.array(steps, dtype=kind)}, Gathered(CLASSES, np.array(picks, dtype=np.uint16) % 4)],
        "steps": np.array(steps, dtype=kind),
    }
    path = tmp_path_factory.getbasetemp() / "slices.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invmasa.documents, "REPORT_SLICE", size)
        expected = oracle(obj)
        assert canonical_json(obj) == expected
        assert len(invmasa.documents.write_json(obj, path)) == len(expected)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert len(invmasa.documents.write_json(obj)) == len(expected)
    assert path.read_bytes() == expected.encode()
    assert stdout.getvalue() == expected


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
