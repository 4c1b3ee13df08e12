import numpy as np
import pytest

from mdee.ingest import DatasetManifest, SplitSpec, dbar_for, load_csv, split


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def small_manifest(path, **kwargs):
    base = dict(
        name="toy",
        path=path,
        response_column="y",
        covariate_columns=["a", "b"],
        delimiter=",",
        has_header=True,
    )
    base.update(kwargs)
    return DatasetManifest(**base)


class TestLoadCsv:
    def test_header_and_two_rows(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        table = load_csv(small_manifest(path))
        np.testing.assert_array_equal(table, [[1, 2, 3], [4, 5, 6]])

    def test_response_moved_last(self, tmp_path):
        path = write_csv(tmp_path, "y,a,b\n9,1,2\n")
        table = load_csv(small_manifest(path))
        np.testing.assert_array_equal(table, [[1, 2, 9]])

    def test_integer_columns_without_header(self, tmp_path):
        path = write_csv(tmp_path, "1,2,3\n4,5,6\n")
        manifest = small_manifest(
            path, response_column=2, covariate_columns=[0, 1], has_header=False
        )
        table = load_csv(manifest)
        assert table.shape == (2, 3)

    def test_non_numeric_cell_names_line(self, tmp_path):
        # float() parses nan and inf; one such cell would make a standardized column NaN in every row
        for cell in ("abc", "nan", "inf", "-Infinity"):
            path = write_csv(tmp_path, f"a,b,y\n1,2,3\n1,{cell},4\n")
            with pytest.raises(ValueError, match="line 3"):
                load_csv(small_manifest(path))

    def test_short_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,2,3\n1,2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(small_manifest(path))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,2,3\n")
        with pytest.raises(ValueError, match="not found"):
            load_csv(small_manifest(path, covariate_columns=["a", "c"]))

    def test_response_among_covariates(self, tmp_path):
        path = write_csv(tmp_path, "a,b,y\n1,2,3\n")
        with pytest.raises(ValueError, match="cannot also"):
            load_csv(small_manifest(path, covariate_columns=["a", "y"]))

    @pytest.mark.parametrize(
        "response, covariates, needle",
        [
            (-1, [1, 2, 3], "-1 is not a zero-based"),  # -1 would be column 3 again
            (3, [-4, 1], "-4 is not a zero-based"),
            (True, [2, 3], "True is not a zero-based"),
            (0, [False, 2], "False is not a zero-based"),
            (0, [1, 1], r"\[1, 1\] name a column twice"),
            (0, ["a", "a"], "name a column twice"),
            (0, [1, "b"], "name a column twice"),  # column 1 is b
        ],
        ids=["negative response", "negative covariate", "bool response", "bool covariate", "repeated index",
             "repeated name", "index and name"],
    )
    def test_bad_column_rejected_naming_manifest(self, tmp_path, response, covariates, needle):
        path = write_csv(tmp_path, "y,b,c,a\n0,1,2,3\n")
        with pytest.raises(ValueError, match=f"^toy: .*{needle}"):
            load_csv(small_manifest(path, response_column=response, covariate_columns=covariates))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(small_manifest(str(tmp_path / "absent.csv")))

    def test_semicolon_delimiter(self, tmp_path):
        path = write_csv(tmp_path, "a;b;y\n1;2;3\n")
        table = load_csv(small_manifest(path, delimiter=";"))
        np.testing.assert_array_equal(table, [[1, 2, 3]])


def toy_table(rows=10, m=2, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.normal(size=(rows, m)), rng.normal(size=rows)])


class TestSplit:
    def test_sizes(self):
        table = toy_table(10)
        train, pool, test = split(table, SplitSpec(n=2, n_prime=3, seed=1))
        assert train.n == 2 and pool.n == 3 and test.n == 5

    def test_partition_no_duplicates(self):
        table = toy_table(20)
        spec = SplitSpec(n=5, n_prime=6, seed=2, standardize=False)
        train, pool, test = split(table, spec)
        recovered = np.vstack([train.X, pool.X, test.X])
        original = np.sort(table[:, :-1], axis=0)
        np.testing.assert_allclose(np.sort(recovered, axis=0), original)

    def test_same_seed_same_split(self):
        table = toy_table(15)
        a = split(table, SplitSpec(n=4, n_prime=5, seed=3))
        b = split(table, SplitSpec(n=4, n_prime=5, seed=3))
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[2].y, b[2].y)

    def test_standardize_centers_reference(self):
        table = toy_table(40)
        train, pool, _ = split(table, SplitSpec(n=10, n_prime=20, seed=4))
        reference = np.vstack([train.X, pool.X])
        np.testing.assert_allclose(reference.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(reference.std(axis=0), 1.0, atol=1e-10)

    def test_standardize_ignores_test_rows(self):
        # statistics must come from train + unlabeled rows only
        table = toy_table(40)
        spec = SplitSpec(n=10, n_prime=20, seed=5, standardize=False)
        train_raw, pool_raw, test_raw = split(table, spec)
        spec_std = SplitSpec(n=10, n_prime=20, seed=5, standardize=True)
        train_std, _, test_std = split(table, spec_std)
        reference = np.vstack([train_raw.X, pool_raw.X])
        mean, std = reference.mean(axis=0), reference.std(axis=0)
        np.testing.assert_allclose(test_std.X, (test_raw.X - mean) / std, atol=1e-12)
        np.testing.assert_allclose(train_std.X, (train_raw.X - mean) / std, atol=1e-12)

    def test_constant_column_not_divided(self):
        table = toy_table(12)
        table[:, 0] = 3.0
        train, _, _ = split(table, SplitSpec(n=4, n_prime=4, seed=6))
        assert np.isfinite(train.X).all()
        np.testing.assert_allclose(train.X[:, 0], 0.0, atol=1e-12)

    def test_responses_untouched(self):
        table = toy_table(12)
        train, _, _ = split(table, SplitSpec(n=4, n_prime=4, seed=7))
        assert set(np.round(train.y, 12)) <= set(np.round(table[:, -1], 12))

    def test_infeasible_counts(self):
        table = toy_table(10)
        with pytest.raises(ValueError, match="infeasible"):
            split(table, SplitSpec(n=5, n_prime=5, seed=0))
        with pytest.raises(ValueError, match="infeasible"):
            split(table, SplitSpec(n=0, n_prime=2, seed=0))


class TestDbarFor:
    def test_known_values(self):
        assert dbar_for(20, 7) == 3
        assert dbar_for(50, 8) == 7
        assert dbar_for(20, 1) == 19

    def test_always_below_n(self):
        for n in range(2, 60):
            for m in range(1, 10):
                assert 1 <= dbar_for(n, m) < n

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dbar_for(1, 3)
        with pytest.raises(ValueError):
            dbar_for(10, 0)
