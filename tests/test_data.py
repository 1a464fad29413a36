import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds import data
from ivbounds.data import ColumnMapping, Dataset, LoadError, load_csv

MAPPING = ColumnMapping(covariates=["age"], instrument="z", exposure="a",
                        outcome="y")


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestDataset:
    def test_basic_construction(self):
        d = Dataset(x=np.zeros((4, 2)), z=[0, 1, 0, 1], a=[0, 1, 1, 0],
                    y=[0, 1, 0, 1])
        assert d.n == 4
        np.testing.assert_allclose(d.w, np.ones(4))

    def test_instrument_and_exposure_are_int8(self):
        d = Dataset(x=np.zeros((3, 1)), z=np.array([0.0, 1.0, 1.0]), a=[True, False, True],
                    y=[0, 1, 0])
        assert d.z.dtype == d.a.dtype == np.int8
        assert d.z.tolist() == [0, 1, 1] and d.a.tolist() == [1, 0, 1]
        assert d.subset(np.array([2, 0])).z.dtype == np.int8

    def test_normalized_weights_sum_to_one(self):
        d = Dataset(x=np.zeros((3, 1)), z=[0, 1, 0], a=[0, 1, 0], y=[0, 0, 1],
                    w=[1.0, 2.0, 3.0])
        assert d.normalized_weights().sum() == pytest.approx(1.0)

    def test_subset_fields_are_the_indexed_arrays(self):
        rng = np.random.default_rng(5)
        d = Dataset(x=rng.random((40, 3)), z=rng.integers(0, 2, 40),
                    a=rng.integers(0, 2, 40), y=rng.integers(0, 2, 40),
                    w=rng.uniform(0.5, 2.0, 40))
        for idx in (np.array([7, 3, 3, 39]), np.arange(40) % 3 == 0, np.array([], int)):
            s = d.subset(idx)
            for field in ("x", "z", "a", "y", "w"):
                want = getattr(d, field)[idx]
                got = getattr(s, field)
                assert got.dtype == want.dtype and got.shape == want.shape, field
                np.testing.assert_array_equal(got, want)
            assert s.n == len(d.z[idx]) and s.outcome_kind == d.outcome_kind

    def test_subset_preserves_metadata(self):
        d = Dataset(x=np.arange(6.0).reshape(3, 2), z=[0, 1, 0], a=[0, 1, 0],
                    y=[0, 0, 1])
        s = d.subset(np.array([2, 0]))
        assert s.n == 2
        np.testing.assert_allclose(s.x[0], [4.0, 5.0])

    def test_replace_outcome(self):
        d = Dataset(x=np.zeros((2, 1)), z=[0, 1], a=[0, 1], y=[0, 1])
        c = d.replace_outcome(np.array([0.25, 0.75]), "bounded-continuous")
        assert c.outcome_kind == "bounded-continuous"
        assert d.y[1] == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(z=[0, 2]), dict(a=[0, 3]), dict(y=[0, 0.5]), dict(w=[1.0, 0.0]),
        dict(z=[0, 0.7]), dict(a=[1.9, 1]), dict(a=[0, -0.5]), dict(z=[np.nan, 1]),
    ])
    def test_invalid_columns_rejected(self, kwargs):
        base = dict(x=np.zeros((2, 1)), z=[0, 1], a=[0, 1], y=[0, 1])
        base.update(kwargs)
        with pytest.raises(ValueError):
            Dataset(**base)

    @pytest.mark.parametrize("kind,kwargs", [
        ("binary", dict(w=[1.0, np.nan, 1.0, 1.0])),
        ("binary", dict(w=[1.0, 1.0, np.inf, 1.0])),
        ("bounded-continuous", dict(y=[0.2, np.nan, 0.4, 0.9])),
        ("bounded-continuous", dict(y=[0.2, -np.inf, 0.4, 0.9])),
    ])
    def test_non_finite_weights_and_outcomes_rejected(self, kind, kwargs):
        # NaN passes the positivity and range checks, so it needs its own.
        base = dict(x=np.zeros((4, 1)), z=[0, 1, 0, 1], a=[0, 1, 1, 0],
                    y=[0.0, 1.0, 0.0, 1.0], outcome_kind=kind)
        base.update(kwargs)
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(**base)

    def test_weights_whose_sum_overflows_rejected(self):
        # Each weight is finite; the sum is inf, so every normalized weight was 0.
        with pytest.raises(ValueError, match="weights sum"):
            Dataset(x=np.zeros((4, 1)), z=[0, 1, 0, 1], a=[0, 1, 1, 0],
                    y=[0.0, 1.0, 0.0, 1.0], w=np.full(4, 1e308))

    def test_unknown_outcome_kind_rejected(self):
        # A misspelled kind skipped the 0/1 check of a binary outcome.
        with pytest.raises(ValueError, match="'bianry' is neither"):
            Dataset(np.zeros((3, 1)), [0, 1, 0], [0, 1, 1], [0.5, 2.0, 7.0],
                    outcome_kind="bianry")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 1)), z=[0, 1], a=[0, 1], y=[0, 1])

    def test_one_dimensional_x_is_one_column(self):
        d = Dataset(x=np.arange(5.0), z=[0, 1, 0, 1, 0], a=[0, 1, 1, 0, 0],
                    y=[0, 1, 0, 1, 1])
        assert d.x.shape == (5, 1)
        np.testing.assert_array_equal(d.x[:, 0], np.arange(5.0))


def test_column_in_two_roles_rejected():
    # A repeated covariate, a covariate that is the outcome and an instrument that
    # is the exposure: each column is named once.
    with pytest.raises(ValueError, match=r"^columns mapped to more than one role: "
                                         r"\['age', 'y', 'z'\]$"):
        ColumnMapping(["age", "y", "age"], "z", "z", "y", weight="w")


class TestLoadCsv:
    def test_four_row_toy_file(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y\n30,0,0,0\n40,1,1,1\n50,0,1,0\n60,1,0,1\n")
        d = load_csv(p, MAPPING)
        assert d.n == 4
        np.testing.assert_allclose(d.x[:, 0], [30, 40, 50, 60])

    def test_columns_own_their_data(self, tmp_path):
        # A view of the parsed table would keep all of it alive, as y once did.
        p = write_csv(tmp_path, "age,z,a,y,w\n30,0,0,0,1\n40,1,1,1,2\n50,0,1,0,3\n")
        d = load_csv(p, ColumnMapping(["age"], "z", "a", "y", "w"))
        for name in ("x", "z", "a", "y", "w"):
            assert getattr(d, name).base is None, name
        assert d.z.dtype == d.a.dtype == np.int8

    def test_unknown_outcome_kind_rejected_before_reading(self, tmp_path):
        # The kind was checked by Dataset, after the whole file was parsed.
        with pytest.raises(ValueError, match="'bianry' is neither"):
            load_csv(tmp_path / "does-not-exist.csv", MAPPING, outcome_kind="bianry")

    def test_non_binary_instrument_cites_row(self, tmp_path):
        rows = "\n".join("30,0,0,0" for _ in range(6))
        p = write_csv(tmp_path, f"age,z,a,y\n{rows}\n30,2,0,0\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "non-binary"
        assert "row 7" in str(exc.value)

    def test_malformed_numeric(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y\nthirty,0,0,0\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "malformed-numeric"

    @pytest.mark.parametrize("column,value", [
        ("age", "nan"), ("y", "inf"), ("age", "-Infinity")])
    def test_non_finite_cites_row(self, tmp_path, column, value):
        good = "30,0,0,0.5"
        bad = {"age": f"{value},1,1,0.5", "y": f"40,1,1,{value}"}[column]
        p = write_csv(tmp_path, f"age,z,a,y\n{good}\n{good}\n{bad}\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING, outcome_kind="bounded-continuous")
        assert exc.value.code == "non-finite"
        assert "row 3" in str(exc.value) and repr(column) in str(exc.value)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path, "")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "empty-file"

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "empty-file"

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a\n30,0,0\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "missing-column"

    def test_repeated_mapped_column(self, tmp_path):
        # The header's last "y" was the one read; a repeated unmapped name still loads.
        p = write_csv(tmp_path, "y,age,z,a,age,y\n0,30,0,0,31,1\n1,40,1,1,41,0\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "duplicate-column"
        assert str(exc.value) == f"{p}: header repeats columns: ['age', 'y']"
        p = write_csv(tmp_path, "age,note,z,a,y,note\n30,u,0,0,0,v\n40,w,1,1,1,x\n", "u.csv")
        d = load_csv(p, MAPPING)
        np.testing.assert_array_equal(d.x[:, 0], [30.0, 40.0])
        np.testing.assert_array_equal(d.y, [0.0, 1.0])

    def test_missing_field_cites_row(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y\n30,0,0,0\n40,,1,1\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "missing-field"
        assert "row 2" in str(exc.value)

    def test_weight_column_changes_estimates(self, tmp_path):
        p = write_csv(tmp_path,
                      "age,z,a,y,wt\n1,0,0,0,1\n2,1,1,1,5\n3,0,1,0,1\n4,1,0,1,2\n")
        weighted = load_csv(p, ColumnMapping(["age"], "z", "a", "y", weight="wt"))
        unweighted = load_csv(p, MAPPING)
        assert not np.allclose(weighted.normalized_weights(),
                               unweighted.normalized_weights())

    def test_continuous_outcome_kind(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y\n30,0,0,0.3\n40,1,1,0.9\n")
        d = load_csv(p, MAPPING, outcome_kind="bounded-continuous")
        assert d.outcome_kind == "bounded-continuous"
        np.testing.assert_allclose(d.y, [0.3, 0.9])


def _parse_float(value: str, row_no: int, col: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise LoadError("malformed-numeric",
                        f"row {row_no}: column '{col}' value {value!r} is not numeric")
    if not math.isfinite(v):
        raise LoadError("non-finite",
                        f"row {row_no}: column '{col}' value {value!r} is not finite")
    return v


def _parse_binary(value: str, row_no: int, col: str) -> int:
    v = _parse_float(value, row_no, col)
    if v not in (0.0, 1.0):
        raise LoadError("non-binary",
                        f"row {row_no}: column '{col}' value {value!r} is not 0/1")
    return int(v)


def reference_load_csv(path, mapping, outcome_kind="binary"):
    """The row-at-a-time loader that column-wise ``load_csv`` replaced."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise LoadError("empty-file", f"{path}: no header row")
        required = list(mapping.covariates) + [mapping.instrument,
                                               mapping.exposure, mapping.outcome]
        if mapping.weight:
            required.append(mapping.weight)
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise LoadError("missing-column", f"{path}: columns not found: {missing}")
        repeated = [c for c in required if reader.fieldnames.count(c) > 1]
        if repeated:
            raise LoadError("duplicate-column", f"{path}: header repeats columns: {repeated}")

        xs, zs, as_, ys, ws = [], [], [], [], []
        for row_no, row in enumerate(reader, start=1):
            blank = [c for c in required if not (row.get(c) or "").strip()]
            if blank:
                raise LoadError("missing-field",
                                f"row {row_no}: missing value(s) for {blank}")
            xs.append([_parse_float(row[c], row_no, c) for c in mapping.covariates])
            zs.append(_parse_binary(row[mapping.instrument], row_no, mapping.instrument))
            as_.append(_parse_binary(row[mapping.exposure], row_no, mapping.exposure))
            if outcome_kind == "binary":
                ys.append(_parse_binary(row[mapping.outcome], row_no, mapping.outcome))
            else:
                ys.append(_parse_float(row[mapping.outcome], row_no, mapping.outcome))
            if mapping.weight:
                ws.append(_parse_float(row[mapping.weight], row_no, mapping.weight))
    if not zs:
        raise LoadError("empty-file", f"{path}: no data rows")
    return Dataset(np.array(xs), np.array(zs), np.array(as_), np.array(ys),
                   np.array(ws) if mapping.weight else None, outcome_kind=outcome_kind)


def load_outcome(loader, path, mapping, kind):
    try:
        return loader(path, mapping, kind)
    except LoadError as exc:
        return exc.code, str(exc)


def assert_same_load(path, mapping, kind):
    """Both loaders give equal arrays of equal dtypes, or the same error."""
    want = load_outcome(reference_load_csv, path, mapping, kind)
    got = load_outcome(load_csv, path, mapping, kind)
    if isinstance(want, tuple):
        assert got == want
        return want
    assert isinstance(got, Dataset), got
    for name in ("x", "z", "a", "y", "w"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert got.outcome_kind == want.outcome_kind
    return got


COVARIATES = ["age", "inc"]
TEXT_CELLS = ["abc", '"a,b"', '"say ""hi"", twice"', "", " x ", '"two\nlines"', "#note"]


def render_number(rng, value):
    text = rng.choice([repr(value), f"{value:.6f}", f"{value:.3e}"])
    if value == int(value) and rng.random() < 0.5:
        text = str(int(value))
    pad = rng.choice(["", " ", "\t", "  "])
    text = f"{pad}{text}{pad[::-1]}"
    return f'"{text}"' if rng.random() < 0.2 else text


def seeded_csv(path, rng, n, kind, weights, blank_lines=False, crlf=False,
               long_rows=False, whitespace_line=False):
    """A CSV of ``n`` valid rows in a shuffled header with unused text columns."""
    columns = COVARIATES + ["z", "a", "y", "note", "city"] + (["wt"] if weights else [])
    order = [columns[i] for i in rng.permutation(len(columns))]
    lines = [",".join(order)]
    for _ in range(n):
        z, a = rng.integers(0, 2, 2)
        y = rng.integers(0, 2) if kind == "binary" else rng.uniform(0, 12)
        values = {"age": rng.integers(18, 90), "inc": rng.normal(0, 1e4),
                  "z": z, "a": a, "y": y, "wt": rng.uniform(0.1, 5)}
        cells = [rng.choice(TEXT_CELLS) if c in ("note", "city")
                 else render_number(rng, float(values[c])) for c in order]
        if long_rows and rng.random() < 0.3:
            cells += ["extra", "9"]
        lines.append(",".join(cells))
        if blank_lines and rng.random() < 0.2:
            lines.append("")
    if whitespace_line:
        lines.insert(int(rng.integers(1, len(lines) + 1)), "  \t ")
    eol = "\r\n" if crlf else "\n"
    path.write_bytes((eol.join(lines) + eol).encode())
    return path


def seeded_mapping(weights):
    return ColumnMapping(COVARIATES, "z", "a", "y", weight="wt" if weights else None)


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["binary", "bounded-continuous"])
    def test_seeded_files(self, tmp_path, seed, kind):
        rng = np.random.default_rng(seed)
        weights = bool(seed % 2)
        path = seeded_csv(tmp_path / "d.csv", rng, 40, kind, weights,
                          blank_lines=seed % 3 == 0, crlf=seed >= 3, long_rows=True)
        got = assert_same_load(path, seeded_mapping(weights), kind)
        assert isinstance(got, Dataset) and got.n == 40

    def test_whitespace_only_line_is_missing_field(self, tmp_path):
        path = seeded_csv(tmp_path / "d.csv", np.random.default_rng(9), 20, "binary",
                          False, whitespace_line=True)
        code, _ = assert_same_load(path, seeded_mapping(False), "binary")
        assert code == "missing-field"

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           kind=st.sampled_from(["binary", "bounded-continuous"]),
           weights=st.booleans(), blank_lines=st.booleans(), crlf=st.booleans(),
           long_rows=st.booleans(), whitespace_line=st.booleans())
    def test_property(self, tmp_path_factory, seed, n, kind, weights, blank_lines,
                      crlf, long_rows, whitespace_line):
        path = seeded_csv(tmp_path_factory.mktemp("csv") / "d.csv",
                          np.random.default_rng(seed), n, kind, weights,
                          blank_lines, crlf, long_rows, whitespace_line)
        assert_same_load(path, seeded_mapping(weights), kind)

    @pytest.mark.parametrize("column,value,code", [
        ("age", "", "missing-field"), ("z", "   ", "missing-field"),
        ("inc", "thirty", "malformed-numeric"), ("age", "#5", "malformed-numeric"),
        ("y", "1.2.3", "malformed-numeric"), ("wt", "0x10", "malformed-numeric"),
        ("inc", "nan", "non-finite"), ("wt", "inf", "non-finite"),
        ("y", "-Infinity", "non-finite"), ("age", "1e999", "non-finite"),
        ("z", "2", "non-binary"), ("a", "0.5", "non-binary"), ("y", "-1", "non-binary"),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_corrupted_cell(self, tmp_path, column, value, code, seed):
        rng = np.random.default_rng(seed)
        path = seeded_csv(tmp_path / "d.csv", rng, 30, "binary", True,
                          blank_lines=True, crlf=seed == 1)
        rows = list(csv.reader(path.open(newline="")))
        row = int(rng.integers(1, len(rows)))
        while not rows[row]:
            row -= 1
        rows[row][rows[0].index(column)] = value
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        record = sum(1 for r in rows[1:row + 1] if r)
        got_code, message = assert_same_load(path, seeded_mapping(True), "binary")
        assert got_code == code and message.startswith(f"row {record}: ")

    def test_first_fault_wins_across_parse_and_validation(self, tmp_path):
        # row 2 fails validation only, row 3 fails the column-wise parse
        p = write_csv(tmp_path, "age,z,a,y\n30,0,0,0\n31,0,3,0\n3x,0,0,0\n")
        assert assert_same_load(p, MAPPING, "binary") == (
            "non-binary", "row 2: column 'a' value '3' is not 0/1")

    def test_scan_never_returns_a_dataset(self, tmp_path, monkeypatch):
        # a parse failure the scan cannot place still fails, and loudly
        monkeypatch.setattr(data, "_cell_error", lambda text, kind: None)
        p = write_csv(tmp_path, "age,z,a,y\n30,0,0,0\n3x,0,0,0\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "malformed-numeric"

    @pytest.mark.parametrize("text", [
        "age,z,a,y,age\n1,0,0,0,5\n",          # duplicate header: duplicate-column
        "age,z,a,y,age\n1,0,0,0\n",            # ... found before the short row
        '"age","z",a,y\n1,0,0,0\n',             # quoted header names
        'age,z,a,y\n" 1 ",0,0,0\n"1""",0,0,0\n',  # padded and broken quoted numbers
        "age,z,a,y,t\n1,0,0,0,\"open\n",       # unterminated final quote
        "age,z,a,y\n1,0,0,0,\n-0,+1,-0.0,1.\n",  # trailing comma, signs
        "age,z,a,y\r1,0,0,0\r",                 # bare CR line ends
    ])
    def test_edge_files(self, tmp_path, text):
        assert_same_load(write_csv(tmp_path, text), MAPPING, "binary")

    @pytest.mark.parametrize("text", ["", "age,z,a,y\n", "age,z,a,y\n\n\n",
                                      "age,z\n1,0\n", "\nage,z,a,y\n1,0,0,0\n"])
    def test_header_errors(self, tmp_path, text):
        assert isinstance(assert_same_load(write_csv(tmp_path, text), MAPPING,
                                           "binary"), tuple)


class TestLoaderDifferences:
    """Where column-wise parsing departs from Python ``float``."""

    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0662", "\uff11"])
    def test_underscores_and_non_ascii_digits_are_malformed(self, tmp_path, value):
        p = write_csv(tmp_path, f"age,z,a,y\n30,0,0,0\n{value},1,1,1\n")
        assert reference_load_csv(p, MAPPING).x[1, 0] == float(value)
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "malformed-numeric"
        assert str(exc.value) == f"row 2: column 'age' value {value!r} is not numeric"

    def test_separator_controls_are_whitespace(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y\n\x1c30\x1f,0,0,0\n")
        with pytest.raises(LoadError):
            reference_load_csv(p, MAPPING)
        assert load_csv(p, MAPPING).x[0, 0] == 30.0


class TestOversizedField:
    """A quoted field longer than ``csv.field_size_limit()`` that ``csv`` must
    read is a LoadError with its row, not a ``csv.Error``."""

    BIG = '"' + "x" * 200_000 + '"'

    def test_in_the_header(self, tmp_path):
        p = write_csv(tmp_path, f"age,z,a,y,{self.BIG}\n30,0,0,0,t\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "field-too-large"
        assert str(exc.value).startswith("row 0: field larger than field limit")

    def test_before_a_bad_cell(self, tmp_path):
        p = write_csv(tmp_path, f"age,z,a,y,note\n\n30,0,0,0,t\n\n31,1,1,1,{self.BIG}\n"
                                "32,5,0,0,t\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "field-too-large"
        assert str(exc.value).startswith("row 2: ")  # blank lines take no number

    def test_after_the_bad_cell_is_not_read(self, tmp_path):
        p = write_csv(tmp_path, f"age,z,a,y,note\n30,5,0,0,t\n31,1,1,1,{self.BIG}\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, MAPPING)
        assert exc.value.code == "non-binary"


class TestWeightTotalOverflow:
    @pytest.mark.parametrize("weights, row", [(["1e308", "1e308", "1"], 2),
                                              (["1", "1.5e308", "1e308"], 3)])
    def test_cites_the_row_where_the_total_overflows(self, tmp_path, weights, row):
        p = write_csv(tmp_path, "age,z,a,y,w\n" + "".join(
            f"30,0,0,0,{w}\n" for w in weights))
        with pytest.raises(LoadError) as exc:
            load_csv(p, ColumnMapping(["age"], "z", "a", "y", weight="w"))
        assert exc.value.code == "weight-total-overflow"
        assert str(exc.value) == f"row {row}: weights sum to more than the largest float"

    def test_a_total_below_the_largest_float_loads(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y,w\n30,0,0,0,1e308\n31,1,1,1,7e307\n")
        assert load_csv(p, ColumnMapping(["age"], "z", "a", "y", weight="w")).n == 2

    @pytest.mark.parametrize("weights, row", [
        (["1.7976931348623157e308"] + ["9e291"] * 15, 16),  # only the pairwise total
        (["\x1c1e308\x1f", " 1e308 ", "1"], 2),             # padded cells
    ])
    def test_running_total_rule_edges(self, tmp_path, weights, row):
        p = write_csv(tmp_path, "age,z,a,y,w\n" + "".join(
            f"30,0,0,0,{w}\n" for w in weights))
        with pytest.raises(LoadError) as exc:
            load_csv(p, ColumnMapping(["age"], "z", "a", "y", weight="w"))
        assert exc.value.code == "weight-total-overflow"
        assert str(exc.value) == f"row {row}: weights sum to more than the largest float"

    @pytest.mark.parametrize("weights, row", [
        (["1e308", "1e308", None], 3),   # the total overflows at row 2, the cell is at 3
        (["1e308", None, "1e308"], 2),   # the cell comes first
        (["1.7976931348623157e308"] + ["9e291"] * 14 + [None], 16),
    ])
    def test_a_cell_fault_wins_wherever_it_sits(self, tmp_path, weights, row):
        # None marks the row whose exposure is 3
        p = write_csv(tmp_path, "age,z,a,y,w\n" + "".join(
            "30,0,3,0,1\n" if w is None else f"30,0,0,0,{w}\n" for w in weights))
        with pytest.raises(LoadError) as exc:
            load_csv(p, ColumnMapping(["age"], "z", "a", "y", weight="w"))
        assert (exc.value.code, str(exc.value)) == (
            "non-binary", f"row {row}: column 'a' value '3' is not 0/1")


class TestLateFault:
    """A fault in the last of many rows is named at its row."""

    @pytest.mark.parametrize("cells, code, quoted", [
        ("30,0,3,0,1", "non-binary", "column 'a' value '3' is not 0/1"),
        ("nan,0,0,0,1", "non-finite", "column 'age' value 'nan' is not finite"),
        ("30,0,0,0,0", "non-positive-weight", "column 'w' value '0' is not positive"),
        ("3x,0,0,0,1", "malformed-numeric", "column 'age' value '3x' is not numeric"),
    ])
    def test_last_of_5000_rows(self, tmp_path, cells, code, quoted):
        p = write_csv(tmp_path, "age,z,a,y,w\n" + "30,1,1,1,2\n" * 4999 + cells + "\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, ColumnMapping(["age"], "z", "a", "y", weight="w"))
        assert (exc.value.code, str(exc.value)) == (code, f"row 5000: {quoted}")


class TestNonPositiveWeight:
    @pytest.mark.parametrize("value", ["-2", "0", "-0.0"])
    def test_cites_row(self, tmp_path, value):
        p = write_csv(tmp_path, f"age,z,a,y,w\n30,0,0,0,1\n40,1,1,1,{value}\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, ColumnMapping(["age"], "z", "a", "y", weight="w"))
        assert exc.value.code == "non-positive-weight"
        assert str(exc.value) == f"row 2: column 'w' value {value!r} is not positive"

    def test_unmapped_weight_column_is_ignored(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y,w\n30,0,0,0,-2\n")
        assert load_csv(p, MAPPING).n == 1
