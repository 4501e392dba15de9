"""Dataset container, synthetic generators, CSV io, standardization and
evaluation metrics."""

import math

import numpy as np
import pytest

from dilgp.data import (Dataset, EvalReport, coverage_rate, fit_standardizer,
                        gen_synthetic_1d, gen_synthetic_2d, load_csv, rmse,
                        synthetic_1d_mean, synthetic_2d_mean)
from dilgp.exceptions import DilgpError, DimensionMismatch, InvalidDomainTag, NonFiniteInput


# ---------------------------------------------------------------- container

def test_dataset_shapes_and_props():
    ds = Dataset(np.zeros((5, 3)), np.arange(5.0), np.array([0, 0, 1, 1, 1]))
    assert ds.n == 5 and ds.d == 3
    assert ds.domain_tag.dtype.kind == "i"


def test_dataset_validation():
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros(5), np.zeros(5))          # x must be 2-D
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((5, 1)), np.zeros(4))
    with pytest.raises(DimensionMismatch, match="at least one"):
        Dataset(np.empty((0, 1)), np.empty(0))
    with pytest.raises(NonFiniteInput):
        Dataset(np.array([[np.nan]]), np.array([0.0]))
    with pytest.raises(NonFiniteInput):
        Dataset(np.array([[0.0]]), np.array([np.inf]))
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros((3, 1)), np.zeros(3), np.array([0, 1]))


def test_dataset_rejects_tags_an_int64_cannot_hold():
    # the rule load_csv drops rows by: a fractional, non-finite or too large
    # tag is an error naming its row, not a truncated or wrapped domain
    x, y = np.zeros((3, 1)), np.zeros(3)
    for tags, row in (([0.5, 1.7, 2.0], 0), ([0.0, np.nan, 1.0], 1), ([0, 1, np.inf], 2),
                      ([0, 1, 2 ** 63], 2), ([0.0, -2.0 ** 64, 1.0], 1), (["0", "a", "1"], None)):
        with pytest.raises(InvalidDomainTag, match=f"row {row}" if row is not None else "numbers"):
            Dataset(x, y, tags)
    assert issubclass(InvalidDomainTag, DilgpError)
    for tags in ([0.0, -3.0, 2.0], np.array([0, -3, 2], dtype=np.int32),
                 np.array([0, 3, 2], dtype=np.uint64), [False, True, True]):
        ds = Dataset(x, y, tags)
        assert ds.domain_tag.dtype == np.int64
        assert np.array_equal(ds.domain_tag, np.asarray(tags, dtype=float))
    big = Dataset(x, y, np.array([0, 1, 2 ** 63 - 1], dtype=np.uint64))
    assert big.domain_tag[2] == 2 ** 63 - 1


# ---------------------------------------------------------------- generators

def test_mean_functions_pinned_values():
    assert synthetic_1d_mean(np.array([0.0]), 0)[0] == 0.0
    assert synthetic_1d_mean(np.array([6.5]), 1)[0] == pytest.approx(0.5)
    assert synthetic_2d_mean(np.array([[0.3, 0.3]]), 0)[0] == pytest.approx(3.0 * math.sin(29.0))
    assert synthetic_2d_mean(np.array([[0.7, 0.7]]), 1)[0] == pytest.approx(math.sin(55.0) + 1.1)


def test_mean_function_validation():
    with pytest.raises(ValueError):
        synthetic_1d_mean(np.array([0.0]), 2)
    with pytest.raises(ValueError):
        synthetic_2d_mean(np.array([[0.0, 0.0]]), -1)
    with pytest.raises(DimensionMismatch):
        synthetic_2d_mean(np.zeros((4, 3)), 0)


def test_gen_1d_sizes_and_tags():
    train, test = gen_synthetic_1d(0)
    assert (train.n, train.d) == (115, 1)
    assert (test.n, test.d) == (80, 1)
    assert np.sum(train.domain_tag == 0) == 100
    assert np.sum(train.domain_tag == 1) == 15
    assert np.all(test.domain_tag == 1)
    # the two clusters live in different x ranges
    assert abs(train.x[train.domain_tag == 0].mean()) < 0.5
    assert abs(train.x[train.domain_tag == 1].mean() - 6.5) < 1.0


def test_gen_2d_sizes_and_clusters():
    train, test = gen_synthetic_2d(1)
    assert (train.n, train.d) == (115, 2)
    assert (test.n, test.d) == (80, 2)
    c0 = train.x[train.domain_tag == 0]
    c1 = train.x[train.domain_tag == 1]
    assert np.allclose(c0.mean(axis=0), [0.3, 0.3], atol=0.05)
    assert np.allclose(c1.mean(axis=0), [0.7, 0.7], atol=0.12)


def test_generators_deterministic():
    for gen in (gen_synthetic_1d, gen_synthetic_2d):
        a_tr, a_te = gen(3)
        b_tr, b_te = gen(3)
        c_tr, _ = gen(4)
        assert np.array_equal(a_tr.x, b_tr.x) and np.array_equal(a_tr.y, b_tr.y)
        assert np.array_equal(a_te.y, b_te.y)
        assert not np.array_equal(a_tr.y, c_tr.y)


def test_noise_level_flag_rescales_residuals():
    # same seed consumes the same draws, only the noise multiplier changes:
    # levels are variances by default, read directly as stds with the flag
    var_tr, _ = gen_synthetic_1d(5, noise_as_std=False)
    std_tr, _ = gen_synthetic_1d(5, noise_as_std=True)
    assert np.array_equal(var_tr.x, std_tr.x)
    r_var = var_tr.y[:100] - synthetic_1d_mean(var_tr.x[:100, 0], 0)
    r_std = std_tr.y[:100] - synthetic_1d_mean(std_tr.x[:100, 0], 0)
    assert np.allclose(r_std, r_var * (0.1 / math.sqrt(0.1)), rtol=1e-12)


# ---------------------------------------------------------------- csv io

def test_csv_round_trip_exact(tmp_path):
    train, _ = gen_synthetic_2d(7)
    path = tmp_path / "train.csv"
    train.to_csv(path)
    back = load_csv(path, "y", domain_column="domain")
    assert np.array_equal(back.x, train.x)
    assert np.array_equal(back.y, train.y)
    assert np.array_equal(back.domain_tag, train.domain_tag)
    assert back.dropped_rows == 0


def test_load_csv_feature_autodetection(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,y,b\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    ds = load_csv(path, "y")
    assert ds.d == 2
    assert np.array_equal(ds.x, [[1.0, 3.0], [4.0, 6.0]])
    assert np.array_equal(ds.y, [2.0, 5.0])


def test_load_csv_drops_bad_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x0,y\n1.0,2.0\nbroken,3.0\n4.0,inf\n5.0,6.0\n")
    ds = load_csv(path, "y")
    assert ds.n == 2
    assert ds.dropped_rows == 2
    assert np.array_equal(ds.y, [2.0, 6.0])


def test_load_csv_drops_infinite_domain_tags(tmp_path):
    # and every tag an int64 cannot hold: 1.5 (not domain 1) and 1e20 alike
    path = tmp_path / "d.csv"
    path.write_text("x0,y,domain\n1.0,2.0,0\n3.0,4.0,inf\n5.0,6.0,-inf\n7.0,8.0,1\n"
                    "1.0,3.0,1.5\n1.0,5.0,1e20\n1.0,7.0,nan\n1.0,9.0,-3.0\n")
    ds = load_csv(path, "y", domain_column="domain")
    assert ds.dropped_rows == 5
    assert np.array_equal(ds.y, [2.0, 8.0, 9.0])
    assert np.array_equal(ds.domain_tag, [0, 1, -3])


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DilgpError, match="empty"):
        load_csv(empty, "y")

    noz = tmp_path / "noz.csv"
    noz.write_text("x0,y\n1.0,2.0\n")
    with pytest.raises(DilgpError, match="x0"):
        load_csv(noz, "z")           # message lists the columns present

    allbad = tmp_path / "bad.csv"
    allbad.write_text("x0,y\nnan,1.0\noops,2.0\n")
    with pytest.raises(DilgpError, match="no parseable"):
        load_csv(allbad, "y")

    only_y = tmp_path / "only_y.csv"
    only_y.write_text("y\n1.0\n")
    with pytest.raises(DilgpError, match="feature"):
        load_csv(only_y, "y")


# ---------------------------------------------------------------- scaling

def test_standardizer_round_trip():
    train, test = gen_synthetic_1d(2)
    sz = fit_standardizer(train)
    tr, te = (Dataset(sz.transform_x(d.x), sz.transform_y(d.y)) for d in (train, test))
    assert abs(tr.x.mean()) < 1e-12 and abs(tr.x.std() - 1.0) < 1e-12
    assert abs(tr.y.mean()) < 1e-12
    assert np.allclose(sz.inverse_y(te.y), test.y, rtol=1e-12)
    assert np.allclose(sz.scale_y(np.ones(3)), sz.y_std)


def test_standardizer_uses_train_stats_only():
    train, test = gen_synthetic_1d(2)
    sz = fit_standardizer(train)
    te = Dataset(sz.transform_x(test.x), sz.transform_y(test.y))
    assert np.array_equal(sz.x_mean, train.x.mean(axis=0)) and sz.y_mean == float(train.y.mean())
    assert np.allclose(te.x, (test.x - sz.x_mean) / sz.x_std)


def test_standardizer_constant_columns():
    ds = Dataset(np.column_stack([np.ones(4), np.arange(4.0)]), np.full(4, 2.5))
    sz = fit_standardizer(ds)
    out = Dataset(sz.transform_x(ds.x), sz.transform_y(ds.y))
    assert np.all(out.x[:, 0] == 0.0)      # centered, not rescaled
    assert np.all(out.y == 0.0)
    assert np.allclose(sz.inverse_y(out.y), ds.y)


# ---------------------------------------------------------------- metrics

def test_rmse_closed_form_and_validation():
    assert rmse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(math.sqrt(2.5))
    assert rmse([3.0], [3.0]) == 0.0
    with pytest.raises(DimensionMismatch):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(DimensionMismatch):
        rmse(np.zeros((2, 1)), np.zeros((2, 1)))


def test_coverage_closed_form_and_validation():
    got = coverage_rate([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 2.0, -0.9])
    assert got == pytest.approx(2.0 / 3.0)
    assert coverage_rate([1.0], [0.0], [1.0]) == 1.0
    with pytest.raises(DimensionMismatch):
        coverage_rate([0.0], [1.0, 1.0], [0.0])
    with pytest.raises(NonFiniteInput):
        coverage_rate([0.0], [-1.0], [0.0])


def test_eval_report_json_schema():
    bare = EvalReport(rmse=0.5, n_test=80, coverage_rate=0.75)
    assert bare.to_json_dict() == {"rmse": 0.5, "n_test": 80, "coverage_rate": 0.75}
    full = EvalReport(rmse=0.5, n_test=80, coverage_rate=0.9,
                      per_domain_rmse={1: 0.4, 0: 0.6})
    d = full.to_json_dict()
    assert d["coverage_rate"] == 0.9
    assert list(d["per_domain_rmse"]) == ["0", "1"]
