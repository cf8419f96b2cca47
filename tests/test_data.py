import numpy as np
import pytest

from lexgp.data import (Dataset, LoadError, _normalized_split, generate_uball5d,
                        load_csv, save_csv, split_normalize, uball5d)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    p = write(tmp_path / "small.csv", "a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_csv(p)
    assert ds.n_rows == 3 and ds.n_features == 2
    np.testing.assert_allclose(ds.X, [[1, 2], [4, 5], [7, 8]])
    np.testing.assert_allclose(ds.y, [3, 6, 9])


def test_load_csv_named_target_preserves_feature_order(tmp_path):
    p = write(tmp_path / "mid.csv", "a,target,b\n1,3,2\n4,6,5\n")
    ds = load_csv(p, target="target")
    np.testing.assert_allclose(ds.X, [[1, 2], [4, 5]])
    np.testing.assert_allclose(ds.y, [3, 6])


def test_load_csv_rejects_non_finite_cell(tmp_path):
    p = write(tmp_path / "bad.csv", "a,b\n1,2\n3,NaN\n")
    with pytest.raises(LoadError, match=r"row 3.*'b'"):
        load_csv(p)


def test_load_csv_rejects_garbage_cell(tmp_path):
    p = write(tmp_path / "bad.csv", "a,b\n1,2\nx,4\n")
    with pytest.raises(LoadError, match=r"row 3.*'a'"):
        load_csv(p)


def test_load_csv_missing_target_column(tmp_path):
    p = write(tmp_path / "cols.csv", "a,b\n1,2\n")
    with pytest.raises(LoadError, match="no column named"):
        load_csv(p, target="nope")


def test_load_csv_rejects_duplicate_column_names(tmp_path):
    # the second y would otherwise become a feature next to the target
    for header in ("x0,y,y", "x0, y,y ", "y,x0,y"):
        p = write(tmp_path / "dup.csv", f"{header}\n1,2,3\n4,5,6\n")
        for target in (None, "y"):
            with pytest.raises(LoadError, match="duplicate column name 'y'"):
                load_csv(p, target=target)


def test_load_csv_drops_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a BOM
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfx0,y\n1,2\n3,4\n")
    ds = load_csv(p, target="x0")
    np.testing.assert_array_equal(ds.X, [[2], [4]])
    np.testing.assert_array_equal(ds.y, [1, 3])


def test_load_csv_with_bom_still_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"\xef\xbb\xbfx0,y\n1,\xff\n")
    with pytest.raises(LoadError, match="latin1.csv: not UTF-8"):
        load_csv(p)


def test_load_csv_skips_blank_lines_and_keeps_line_numbers(tmp_path):
    p = write(tmp_path / "gaps.csv", "\na,b\n1,2\n\n3,4\n\n")
    ds = load_csv(p)
    np.testing.assert_array_equal(ds.X, [[1], [3]])
    np.testing.assert_array_equal(ds.y, [2, 4])
    # the bad cell sits on line 6 of the file, the third row after the header
    p = write(tmp_path / "gaps.csv", "a,b\n1,2\n\n3,4\n\nx,6\n")
    with pytest.raises(LoadError, match=r"row 6, column 'a'"):
        load_csv(p)


def test_load_csv_rejects_short_row_after_blank_line(tmp_path):
    p = write(tmp_path / "short.csv", "a,b\n1,2\n\n3\n")
    with pytest.raises(LoadError, match=r"short.csv: row 4 has 1 cells, expected 2"):
        load_csv(p)


def test_load_csv_skips_whitespace_only_lines_and_keeps_line_numbers(tmp_path):
    # a hand-edited file's trailing spaces
    ds = load_csv(write(tmp_path / "spaces.csv", "a,b\n1,2\n   \n"))
    np.testing.assert_array_equal(ds.X, [[1]])
    np.testing.assert_array_equal(ds.y, [2])
    ds = load_csv(write(tmp_path / "spaces.csv", " \na,b\n1,2\n\t\n3,4\n  \t \n"))
    np.testing.assert_array_equal(ds.X, [[1], [3]])
    np.testing.assert_array_equal(ds.y, [2, 4])
    p = write(tmp_path / "spaces.csv", "a,b\n1,2\n   \nx,6\n")
    with pytest.raises(LoadError, match=r"row 4, column 'a'"):
        load_csv(p)


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n,,\n", r"row 3 has 3 cells, expected 2"),
    ("a,b\n1,2\n,\n", r"row 3, column 'a': cannot parse ''"),
    ("a,b,c\n1,2,3\n \n , ,\n", r"row 4, column 'a': cannot parse ' '"),
])
def test_load_csv_rejects_row_of_empty_cells(text, message, tmp_path):
    with pytest.raises(LoadError, match=message):
        load_csv(write(tmp_path / "empty_cells.csv", text))


def test_load_csv_rejects_file_of_blank_lines(tmp_path):
    p = write(tmp_path / "blank.csv", "\n\n\n")
    with pytest.raises(LoadError, match="empty file"):
        load_csv(p)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(17, 3)) * 1e3, rng.normal(size=17) / 7.0)
    out = tmp_path / "rt.csv"
    save_csv(ds, out)
    back = load_csv(out)
    assert (back.X == ds.X).all()
    assert (back.y == ds.y).all()


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [np.inf]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 1)), np.ones(3))


def test_split_sizes_and_disjointness():
    rng = np.random.default_rng(1)
    ds = Dataset(np.arange(20, dtype=float).reshape(10, 2), np.arange(10, dtype=float))
    split = split_normalize(ds, 0.7, np.random.default_rng(2))
    assert split.train.n_rows == 7 and split.test.n_rows == 3
    # the targets 0..9 normalize to ten evenly spaced values: every row
    # lands in exactly one split
    normalized = np.sort(np.concatenate([split.train.y, split.test.y]))
    steps = np.diff(normalized)
    assert normalized.shape == (10,) and steps.min() > 0
    np.testing.assert_allclose(steps, steps[0])


def test_split_differs_across_seeds():
    ds = Dataset(np.arange(40, dtype=float).reshape(20, 2), np.arange(20, dtype=float))
    a = split_normalize(ds, 0.5, np.random.default_rng(3))
    b = split_normalize(ds, 0.5, np.random.default_rng(4))
    assert not np.array_equal(a.train.y, b.train.y)


def test_normalization_uses_population_stddev():
    train = Dataset(np.array([[0.0], [2.0]]), np.array([1.0, 2.0]))
    test = Dataset(np.array([[1.0]]), np.array([1.5]))
    split = _normalized_split(train, test)
    # column (0, 2): mean 1, population stddev 1 -> (-1, 1)
    assert split.train.X[:, 0].tolist() == pytest.approx([-1.0, 1.0])
    # test rows reuse the training statistics
    assert split.test.X[0, 0] == pytest.approx(0.0)


def test_training_columns_are_standardized():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.normal(3.0, 5.0, size=(50, 4)), rng.normal(size=50))
    split = split_normalize(ds, 0.7, rng)
    assert np.abs(split.train.X.mean(axis=0)).max() < 1e-9
    assert np.abs(split.train.X.var(axis=0) - 1.0).max() < 1e-9
    assert np.abs(split.train.y.mean()) < 1e-9
    # renormalizing with the already-normalized statistics is the identity
    assert np.abs(split.train.X.std(axis=0) - 1.0).max() < 1e-9


def test_constant_feature_column_left_alone(caplog):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 2))
    X[:, 1] = 4.0
    ds = Dataset(X, rng.normal(size=20))
    with caplog.at_level("WARNING"):
        split = split_normalize(ds, 0.5, rng)
    assert (split.train.X[:, 1] == 4.0).all()
    assert "constant feature" in caplog.text


def test_uball5d_formula_values():
    assert uball5d(np.array([3.0, 3.0, 3.0, 3.0, 3.0])) == 2.0
    assert uball5d(np.full(5, 4.0)) == pytest.approx(1.0)
    X = np.array([[3.0] * 5, [4.0] * 5])
    np.testing.assert_allclose(uball5d(X), [2.0, 1.0])


def test_generate_uball5d_default_sizes():
    split = generate_uball5d(rng=np.random.default_rng(8))
    assert split.train.n_rows == 1024
    assert split.test.n_rows == 5000
    assert split.train.n_features == 5


def test_generate_uball5d_raw_targets_match_formula():
    # replay the raw draws from the same seed: the split holds them and
    # their formula targets, standardized by training statistics
    rng = np.random.default_rng(9)
    X_train, X_test = rng.uniform(0.05, 6.05, (50, 5)), rng.uniform(0.05, 6.05, (20, 5))
    split = generate_uball5d(50, 20, np.random.default_rng(9))
    y = uball5d(X_train)
    np.testing.assert_allclose(split.train.y, (y - y.mean()) / y.std())
    np.testing.assert_allclose(split.train.X, (X_train - X_train.mean(axis=0)) / X_train.std(axis=0))
    np.testing.assert_allclose(split.test.y, (uball5d(X_test) - y.mean()) / y.std())
