"""File formats: round-trips, malformed input rejection, grid export."""

import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example as hyp_example
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracle_utils import (
    export_grid_csv_reference,
    read_vector_csv_reference,
    write_vector_csv_reference,
)
from unembed import model_io
from unembed.cli import main
from unembed import (
    ModelFormatError,
    RegionGrid,
    SoftmaxModel,
    UnembeddingSet,
    example,
    example_names,
    load_model,
    load_report,
    new_report,
    save_model,
    save_report,
    export_grid_csv,
    synthetic_embeddings,
)

AWKWARD = SoftmaxModel(
    UnembeddingSet(
        ("alpha", "beta", "gamma"),
        [[0.1, -1.0 / 3.0], [1e-15, 2.0**52], [np.pi, -np.e]],
    )
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", example_names())
    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_fixture_values_preserved(self, name, ext, tmp_path):
        model = example(name).model
        path = str(tmp_path / f"m.{ext}")
        save_model(model, path)
        back = load_model(path)
        assert back.labels == model.labels
        np.testing.assert_array_equal(
            back.unembeddings.vectors, model.unembeddings.vectors
        )

    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_awkward_floats_bitwise(self, ext, tmp_path):
        path = str(tmp_path / f"m.{ext}")
        save_model(AWKWARD, path)
        back = load_model(path)
        np.testing.assert_array_equal(
            back.unembeddings.vectors, AWKWARD.unembeddings.vectors
        )

    def test_csv_embeddings_sibling_file(self, tmp_path):
        u = example("unrestricted").model.unembeddings
        model = SoftmaxModel(u, synthetic_embeddings(u, 20, seed=5))
        path = str(tmp_path / "m.csv")
        written = save_model(model, path)
        assert written == [path, str(tmp_path / "m.embeddings.csv")]
        back = load_model(path, embeddings_path=written[1])
        np.testing.assert_array_equal(
            back.embeddings.points, model.embeddings.points
        )

    def test_json_embeddings_inline(self, tmp_path):
        u = example("unrestricted").model.unembeddings
        model = SoftmaxModel(u, synthetic_embeddings(u, 20, seed=5))
        path = str(tmp_path / "m.json")
        assert save_model(model, path) == [path]
        back = load_model(path)
        np.testing.assert_array_equal(
            back.embeddings.points, model.embeddings.points
        )

    def test_double_roundtrip_stable(self, tmp_path):
        # bytes written after one load/save cycle match the first write
        first = str(tmp_path / "a.csv")
        second = str(tmp_path / "b.csv")
        save_model(AWKWARD, first)
        save_model(load_model(first), second)
        assert open(first).read() == open(second).read()

    def test_format_override(self, tmp_path):
        path = str(tmp_path / "model.dat")
        save_model(AWKWARD, path, fmt="json")
        back = load_model(path, fmt="json")
        assert back.labels == AWKWARD.labels

    def test_unknown_extension_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(AWKWARD, str(tmp_path / "model.dat"))


def _write(tmp_path, text, name="bad.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _error(path, **kwargs) -> str:
    """The text of the ModelFormatError that loading `path` raises."""
    with pytest.raises(ModelFormatError) as info:
        load_model(path, **kwargs)
    return str(info.value)


# file text -> what the error says after the path
CSV_ERRORS = {
    # the first failure in file order wins
    "bad-float-before-ragged": (
        "label,dim_0,dim_1\na,1,2\nb,1,x\nc,1,2\nd,1\n",
        ", line 3, column 3: not a number: 'x'",
    ),
    "ragged-before-bad-float": (
        "label,dim_0,dim_1\na,1,2\nb,1\nc,1,2\nd,1,x\n",
        ", line 3: 2 fields, expected 3",
    ),
    "inf-before-word": (
        "label,dim_0,dim_1\na,inf,x\nb,1,2\n",
        ", line 2, column 2: non-finite value: 'inf'",
    ),
    "word-before-inf": (
        "label,dim_0,dim_1\na,x,inf\nb,1,2\n",
        ", line 2, column 2: not a number: 'x'",
    ),
    "empty-name-before-fields": (
        "label,dim_0,dim_1\n,x,2\nb,1,2\n",
        ", line 2: empty label name",
    ),
    "overflow-after-blank-line": (
        "label,dim_0,dim_1\na,1,2\n\nb,1e400,2\n",
        ", line 4, column 2: non-finite value: '1e400'",
    ),
    "negative-nan": (
        "label,dim_0,dim_1\na,1,-nan\nb,1,2\n",
        ", line 2, column 3: non-finite value: '-nan'",
    ),
    "empty-field": (
        "label,dim_0,dim_1\na,1,\nb,1,2\n",
        ", line 2, column 3: not a number: ''",
    ),
    "one-column-header": (
        "label\na\nb\n",
        ", line 1: header must start with 'label',dim_0,...",
    ),
    "misnumbered-header": (
        "label,dim_1\na,1\nb,2\n",
        ", line 1: header ['label', 'dim_1'] != ['label', 'dim_0']",
    ),
    "two-duplicates": (
        "label,dim_0\na,1\nb,2\na,3\nc,4\nb,5\n",
        ": duplicate labels: ['a', 'b']",
    ),
}

_MODEL = '"version": "1", "d": 2, "labels": ["a", "b"], '

# JSON fields -> what the error says after the path
JSON_ERRORS = {
    "no-version": (
        '"d": 2, "labels": ["a", "b"], "unembeddings": [[1, 2], [3, 4]]',
        "unsupported version None",
    ),
    "no-d": (
        '"version": "1", "labels": ["a", "b"], "unembeddings": [[1, 2], [3, 4]]',
        "bad dimension field d",
    ),
    "zero-d": (
        '"version": "1", "d": 0, "labels": ["a", "b"], "unembeddings": [[], []]',
        "bad dimension field d",
    ),
    "float-d": (
        '"version": "1", "d": 2.0, "labels": ["a", "b"], "unembeddings": [[1, 2], [3, 4]]',
        "bad dimension field d",
    ),
    "bool-d": (
        '"version": "1", "d": true, "labels": ["a", "b"], "unembeddings": [[1], [3]]',
        "bad dimension field d",
    ),
    "one-label": (
        '"version": "1", "d": 1, "labels": ["a"], "unembeddings": [[1]]',
        "labels must be a list of at least 2 strings",
    ),
    "int-label": (
        '"version": "1", "d": 1, "labels": ["a", 2], "unembeddings": [[1], [2]]',
        "labels must be a list of at least 2 strings",
    ),
    "two-duplicates": (
        '"version": "1", "d": 1, "labels": ["b", "a", "b", "a", "c"], "unembeddings": []',
        "duplicate labels: ['a', 'b']",
    ),
    "object-matrix": (
        _MODEL + '"unembeddings": {"a": 1}',
        "unembeddings must be a list",
    ),
    "too-few-rows": (
        _MODEL + '"unembeddings": [[1, 2]]',
        "unembeddings has 1 rows, expected 2",
    ),
    "number-embeddings": (
        _MODEL + '"unembeddings": [[1, 2], [3, 4]], "embeddings": 5',
        "embeddings must be a list",
    ),
    # a row-shape error comes before the cells of later rows ...
    "short-row-before-nan": (
        _MODEL + '"unembeddings": [[1], [NaN, 4]]',
        "unembeddings[0] must be a list of 2 numbers",
    ),
    "number-row": (
        _MODEL + '"unembeddings": [[1, 2], 3]',
        "unembeddings[1] must be a list of 2 numbers",
    ),
    # ... and a bad cell before the shape of later rows
    "null-before-short-row": (
        _MODEL + '"unembeddings": [[1, null], [3]]',
        "unembeddings[0][1] is not a finite number",
    ),
    "string-int": (
        _MODEL + '"unembeddings": [[1, 2], [3, "4"]]',
        "unembeddings[1][1] is not a finite number",
    ),
    "string-float": (
        _MODEL + '"unembeddings": [[1, 2], [3, "1.5"]]',
        "unembeddings[1][1] is not a finite number",
    ),
    "bool-cell": (
        _MODEL + '"unembeddings": [[false, 2], [3, 4]]',
        "unembeddings[0][0] is not a finite number",
    ),
    "nan-cell": (
        _MODEL + '"unembeddings": [[1, 2], [NaN, 4]]',
        "unembeddings[1][0] is not a finite number",
    ),
    "infinity-cell": (
        _MODEL + '"unembeddings": [[1, 2], [3, Infinity]]',
        "unembeddings[1][1] is not a finite number",
    ),
    "minus-infinity-cell": (
        _MODEL + '"unembeddings": [[1, -Infinity], [3, 4]]',
        "unembeddings[0][1] is not a finite number",
    ),
    "float-overflow": (
        _MODEL + '"unembeddings": [[1, 1e400], [3, 4]]',
        "unembeddings[0][1] is not a finite number",
    ),
    "nested-list": (
        _MODEL + '"unembeddings": [[1, [2]], [3, 4]]',
        "unembeddings[0][1] is not a finite number",
    ),
    "int-beyond-double": (
        _MODEL + '"unembeddings": [[1, 2], [3, ' + "9" * 400 + "]]",
        "unembeddings[1][1] is not a finite number",
    ),
    "bool-embedding": (
        _MODEL + '"unembeddings": [[1, 2], [3, 4]], "embeddings": [[1, 2], [true, 4]]',
        "embeddings[1][0] is not a finite number",
    ),
}


class TestMalformedCsv:
    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "label,dim_0,dim_1\na,1,2\nb,3\n")
        assert _error(path) == f"{path}, line 3: 2 fields, expected 3"

    def test_duplicate_label(self, tmp_path):
        path = _write(tmp_path, "label,dim_0,dim_1\na,1,2\na,3,4\n")
        assert _error(path) == f"{path}: duplicate labels: ['a']"

    def test_nan_value(self, tmp_path):
        path = _write(tmp_path, "label,dim_0,dim_1\na,1,nan\nb,3,4\n")
        assert _error(path) == f"{path}, line 2, column 3: non-finite value: 'nan'"

    def test_non_numeric_value(self, tmp_path):
        path = _write(tmp_path, "label,dim_0,dim_1\na,1,two\nb,3,4\n")
        assert _error(path) == f"{path}, line 2, column 3: not a number: 'two'"

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "name,x,y\na,1,2\nb,3,4\n")
        assert _error(path) == (
            f"{path}, line 1: header must start with 'label',dim_0,..."
        )

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        assert _error(path) == f"{path}: empty file"

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, "label,dim_0,dim_1\n")
        assert _error(path) == f"{path}: need at least 2 labels"

    def test_single_row(self, tmp_path):
        path = _write(tmp_path, "label,dim_0,dim_1\na,1,2\n")
        assert _error(path) == f"{path}: need at least 2 labels"

    def test_empty_label(self, tmp_path):
        path = _write(tmp_path, "label,dim_0,dim_1\n,1,2\nb,3,4\n")
        assert _error(path) == f"{path}, line 2: empty label name"

    def test_embeddings_dimension_mismatch(self, tmp_path):
        model_path = _write(tmp_path, "label,dim_0,dim_1\na,1,2\nb,3,4\n", "m.csv")
        emb_path = _write(tmp_path, "point,dim_0\np0,1\n", "e.csv")
        assert _error(model_path, embeddings_path=emb_path) == (
            f"{emb_path}: points have d=1, unembeddings d=2"
        )

    @pytest.mark.parametrize("case", CSV_ERRORS)
    def test_exact_text(self, tmp_path, case):
        text, suffix = CSV_ERRORS[case]
        path = _write(tmp_path, text)
        assert _error(path) == path + suffix

    def test_huge_value_sum_overflow_is_accepted(self, tmp_path):
        # every field is finite although their sum overflows
        path = _write(tmp_path, "label,dim_0,dim_1\na,1e308,1e308\nb,-1e308,-1e308\n")
        np.testing.assert_array_equal(
            load_model(path).unembeddings.vectors, [[1e308, 1e308], [-1e308, -1e308]]
        )

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.csv")
        assert _error(path) == f"{path}: No such file or directory"

    def test_empty_point_name(self, tmp_path):
        model_path = _write(tmp_path, "label,dim_0\na,1\nb,2\n", "m.csv")
        emb_path = _write(tmp_path, "point,dim_0\n,1\n", "e.csv")
        assert _error(model_path, embeddings_path=emb_path) == (
            f"{emb_path}, line 2: empty point name"
        )


class TestMalformedJson:
    def test_wrong_version(self, tmp_path):
        path = _write(
            tmp_path,
            '{"version": "2", "d": 2, "labels": ["a", "b"],'
            ' "unembeddings": [[1, 2], [3, 4]]}',
            "bad.json",
        )
        assert _error(path) == f"{path}: unsupported version '2'"

    def test_missing_key(self, tmp_path):
        path = _write(
            tmp_path,
            '{"version": "1", "d": 2, "labels": ["a", "b"]}',
            "bad.json",
        )
        assert _error(path) == f"{path}: unembeddings must be a list"

    def test_not_json(self, tmp_path):
        path = _write(tmp_path, "label,dim_0\na,1\n", "bad.json")
        assert _error(path) == (
            f"{path}: invalid JSON: Expecting value: line 1 column 1 (char 0)"
        )

    def test_not_an_object(self, tmp_path):
        path = _write(tmp_path, "[1, 2, 3]", "bad.json")
        assert _error(path) == f"{path}: top level must be an object"

    def test_d_mismatch(self, tmp_path):
        path = _write(
            tmp_path,
            '{"version": "1", "d": 3, "labels": ["a", "b"],'
            ' "unembeddings": [[1, 2], [3, 4]]}',
            "bad.json",
        )
        assert _error(path) == f"{path}: unembeddings[0] must be a list of 3 numbers"

    def test_bool_in_matrix(self, tmp_path):
        path = _write(
            tmp_path,
            '{"version": "1", "d": 2, "labels": ["a", "b"],'
            ' "unembeddings": [[1, true], [3, 4]]}',
            "bad.json",
        )
        assert _error(path) == f"{path}: unembeddings[0][1] is not a finite number"

    def test_duplicate_labels(self, tmp_path):
        path = _write(
            tmp_path,
            '{"version": "1", "d": 2, "labels": ["a", "a"],'
            ' "unembeddings": [[1, 2], [3, 4]]}',
            "bad.json",
        )
        assert _error(path) == f"{path}: duplicate labels: ['a']"

    def test_embeddings_width_mismatch(self, tmp_path):
        path = _write(
            tmp_path,
            '{"version": "1", "d": 2, "labels": ["a", "b"],'
            ' "unembeddings": [[1, 2], [3, 4]], "embeddings": [[1, 2, 3]]}',
            "bad.json",
        )
        assert _error(path) == f"{path}: embeddings[0] must be a list of 2 numbers"

    @pytest.mark.parametrize("case", JSON_ERRORS)
    def test_exact_text(self, tmp_path, case):
        fields, message = JSON_ERRORS[case]
        path = _write(tmp_path, "{" + fields + "}", "bad.json")
        assert _error(path) == f"{path}: {message}"

    def test_huge_integer_that_fits_a_double_is_accepted(self, tmp_path):
        path = _write(
            tmp_path,
            '{"version": "1", "d": 1, "labels": ["a", "b"],'
            f' "unembeddings": [[{10**308}], [-{2**1023}]]}}',
            "big.json",
        )
        np.testing.assert_array_equal(
            load_model(path).unembeddings.vectors, [[1e308], [-(2.0**1023)]]
        )

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.json")
        assert _error(path) == f"{path}: No such file or directory"


class TestReports:
    def test_roundtrip(self, tmp_path):
        report = new_report(similarity={"metric": "cosine"})
        path = str(tmp_path / "r.json")
        save_report(report, path)
        assert load_report(path) == report

    def test_standard_keys_present(self):
        report = new_report()
        assert list(report) == [
            "input", "transforms", "similarity", "feasibility", "equivalence",
        ]
        assert report["transforms"] == []

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            new_report(bogus=1)

    def test_incomplete_report_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_report({"input": None}, str(tmp_path / "r.json"))


_SPECIAL = [-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf")]
_INTS = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
_FLOATS = st.floats() | st.sampled_from(_SPECIAL)
_TEXT = st.text(st.sampled_from('ab"\\%/\x00\x1f\x7f\u00e9\u2028\U0001f600 ')
                | st.characters(), max_size=5)
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
# int, float, bool and None keys are coerced to text as json.dumps does
_KEYS = _TEXT | st.none() | st.booleans() | _INTS | _FLOATS


@st.composite
def _records(draw, values):
    """A list of dicts on one key list, some with the keys shuffled or one
    missing."""
    keys = draw(st.lists(_TEXT, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [(key, draw(values)) for key in keys]
        change = draw(st.sampled_from(["same", "same", "shuffled", "missing"]))
        if change == "shuffled":
            row = draw(st.permutations(row))
        elif change == "missing":
            row = row[1:]
        rows.append(dict(row))
    return rows


_JSON = st.recursive(
    _SCALARS | st.lists(_INTS | _FLOATS | st.booleans(), max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)
                   | _records(inner)),
    max_leaves=25,
)


def _written(obj) -> str:
    handle = io.StringIO()
    model_io._write_json(handle, obj)
    return handle.getvalue()


def _stdlib_round_trip(path) -> bool:
    with open(path) as handle:
        text = handle.read()
    return text == json.dumps(json.loads(text), indent=2) + "\n"


class TestJsonWriter:
    """_write_json writes what json.dumps(obj, indent=2) + "\n" does."""

    @given(_JSON)
    @hyp_example({"%s": [{"a%": 1, "b": 'x"\\\u00e9'}, {"a%": 2.5, "b": None}]})
    @hyp_example({1: [1, 2.5, True], 1.5: [float("nan"), -0.0, -float("inf")],
                  None: {False: 0}})
    @hyp_example([{1: "a"}, {True: "b"}, {1.0: "c"}])
    @hyp_example([{"w": [0.5, float("inf")]}, {"w": None}, {"w": [2**64, 5e-324]}])
    @hyp_example([{"a": 1, "b": 2}, {"b": 1, "a": 2}, {"a": 1}, {}])
    @hyp_example((1e16, (), [{}], {"": []}))
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert _written(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [{(1, 2): 0}, [object()], {"a": {1j: 0}}])
    def test_unserializable_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            _written(obj)

    def test_cli_outputs_are_indent_2_json(self, tmp_path):
        # every JSON file the CLI writes reads back to the same bytes
        labels = ['l"0', "l%1", "l\u00e92", "l3", "l4", "l5", "l6"]
        g = np.random.default_rng(3).standard_normal((7, 3))
        model = SoftmaxModel(UnembeddingSet(tuple(labels), g),
                             synthetic_embeddings(UnembeddingSet(tuple(labels), g),
                                                  5, seed=1))
        path = str(tmp_path / "m.json")
        save_model(model, path)
        out = tmp_path / "out"
        out.mkdir()
        runs = [
            ["ties", "--input", path, "--all", "--output", f"{out}/ties-all.json"],
            ["ties", "--input", path, "--index", "2", "--output", f"{out}/ties-2.json"],
            ["similarity", "--input", path, "--output", f"{out}/sim.json"],
            ["force-cosine", "--input", path, "--pair", "0", "1", "--target", "-1",
             "--output", f"{out}/forced.json", "--report", f"{out}/forced-report.json"],
            ["verify-equivalence", "--input", path, "--other", f"{out}/forced.json",
             "--output", f"{out}/verify.json"],
            ["transform", "--input", path, "--op", "scale", "--scale", "3",
             "--output", f"{out}/scaled.json"],
        ]
        runs += [["reproduce", name, "--outdir", f"{out}/reproduce-{name}",
                  "--points", "20", "--resolution", "10"]
                 for name in example_names()]
        for argv in runs:
            assert main(argv) == 0, argv
        written = [os.path.join(root, name) for root, _, names in os.walk(out)
                   for name in names if name.endswith(".json")]
        assert len(written) == 7 + 4 + 6  # reproduce: 4 reports, 6 models
        for path in written:
            assert _stdlib_round_trip(path), path


class TestGridExport:
    def test_golden_small_grid(self, tmp_path):
        grid = RegionGrid(
            bounds=((0.0, 2.0), (0.0, 4.0)),
            resolution=(2, 2),
            labels=np.array([[0, 1], [2, 3]], dtype=np.int64),
        )
        path = str(tmp_path / "g.csv")
        export_grid_csv(grid, path)
        assert open(path).read() == (
            "x,y,label_index\n"
            "0.5,1.0,0\n"
            "1.5,1.0,1\n"
            "0.5,3.0,2\n"
            "1.5,3.0,3\n"
        )

    def test_row_count(self, tmp_path, centered):
        from unembed import decision_regions

        grid = decision_regions(centered.model, resolution=30)
        path = str(tmp_path / "g.csv")
        export_grid_csv(grid, path)
        lines = open(path).read().splitlines()
        assert len(lines) == 1 + 30 * 30


# --- the row-at-a-time writers and reader against the per-field references --

EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
NAMES = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "%", "a", "Z", "é", "名", "😀"])
    | st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
)
FIELDS = st.sampled_from(
    ["1", "-0", "0.1", "5e-324", "1e308", "-1e308", "1e400", "nan", "-inf",
     "x", "", " 2", "1_0", "0x10"]
)


def _outcome(read, path, id_column):
    try:
        names, matrix, d = read(path, id_column)
    except ModelFormatError as exc:
        return str(exc)
    return names, matrix.shape, matrix.tobytes(), d


@st.composite
def grids(draw):
    """Small, often non-square grids with any int64 labels."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bounds = st.tuples(FLOATS, FLOATS).filter(lambda b: b[0] < b[1])
    labels = st.integers(-(2**63), 2**63 - 1) | st.integers(-20, 20)
    return RegionGrid(
        bounds=(draw(bounds), draw(bounds)),
        resolution=(nx, ny),
        labels=draw(arrays(np.int64, (ny, nx), elements=labels)),
    )


class TestMatchesReference:
    @given(st.lists(NAMES, min_size=1, max_size=5), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_vector_csv_bytes_and_bits(self, names, d, data):
        matrix = data.draw(arrays(np.float64, (len(names), d), elements=FLOATS))
        with tempfile.TemporaryDirectory() as tmp:
            got, want = f"{tmp}/got.csv", f"{tmp}/want.csv"
            model_io._write_vector_csv(got, "point", names, matrix)
            write_vector_csv_reference(want, "point", names, matrix)
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()
            back = _outcome(model_io._read_vector_csv, got, "point")
            assert back == _outcome(read_vector_csv_reference, want, "point")
            assert back == (names, matrix.shape, matrix.tobytes(), d)

    @given(
        st.integers(1, 3),
        st.lists(
            st.tuples(st.sampled_from(["a", "b", ""]), st.lists(FIELDS, max_size=4)),
            max_size=5,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_vector_csv_reader_errors(self, d, rows):
        text = "label," + ",".join(f"dim_{m}" for m in range(d)) + "\n"
        text += "".join(",".join([name, *fields]) + "\n" for name, fields in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/m.csv"
            with open(path, "w") as handle:
                handle.write(text)
            assert _outcome(model_io._read_vector_csv, path, "label") == _outcome(
                read_vector_csv_reference, path, "label"
            )

    @given(grids())
    @hyp_example(RegionGrid(((0.0, 1.0), (-1.0, 0.0)), (1, 1), [[0]]))
    @hyp_example(RegionGrid(((-1e308, 1e308), (5e-324, 1e-323)), (3, 1), [[-3, 10, 11]]))
    @settings(max_examples=150, deadline=None)
    def test_grid_csv_bytes(self, grid):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = f"{tmp}/got.csv", f"{tmp}/want.csv"
            with np.errstate(over="ignore"):
                export_grid_csv(grid, got)
                export_grid_csv_reference(grid, want)
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()
