import numpy as np
import pytest

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
        assert d.colnames == ["x0", "x1"]

    def test_normalized_weights_sum_to_one(self):
        d = Dataset(x=np.zeros((3, 1)), z=[0, 1, 0], a=[0, 1, 0], y=[0, 0, 1],
                    w=[1.0, 2.0, 3.0])
        assert d.normalized_weights().sum() == pytest.approx(1.0)

    def test_subset_preserves_metadata(self):
        d = Dataset(x=np.arange(6.0).reshape(3, 2), z=[0, 1, 0], a=[0, 1, 0],
                    y=[0, 0, 1], colnames=["u", "v"])
        s = d.subset(np.array([2, 0]))
        assert s.n == 2
        assert s.colnames == ["u", "v"]
        np.testing.assert_allclose(s.x[0], [4.0, 5.0])

    def test_replace_outcome(self):
        d = Dataset(x=np.zeros((2, 1)), z=[0, 1], a=[0, 1], y=[0, 1])
        c = d.replace_outcome(np.array([0.25, 0.75]), "bounded-continuous")
        assert c.outcome_kind == "bounded-continuous"
        assert d.y[1] == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(z=[0, 2]), dict(a=[0, 3]), dict(y=[0, 0.5]), dict(w=[1.0, 0.0]),
    ])
    def test_invalid_columns_rejected(self, kwargs):
        base = dict(x=np.zeros((2, 1)), z=[0, 1], a=[0, 1], y=[0, 1])
        base.update(kwargs)
        with pytest.raises(ValueError):
            Dataset(**base)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 1)), z=[0, 1], a=[0, 1], y=[0, 1])


class TestLoadCsv:
    def test_four_row_toy_file(self, tmp_path):
        p = write_csv(tmp_path, "age,z,a,y\n30,0,0,0\n40,1,1,1\n50,0,1,0\n60,1,0,1\n")
        d = load_csv(p, MAPPING)
        assert d.n == 4
        np.testing.assert_allclose(d.x[:, 0], [30, 40, 50, 60])

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
