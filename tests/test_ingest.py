import csv
import io
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from reference import load_csv_rows, standardized_split

from mdee.harness import RealScenario
from mdee.ingest import dbar_for, load_csv, split

ROOT = Path(__file__).resolve().parent.parent


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def mixed_line_ends(lines: list[str]) -> tuple[bytes, int]:
    """`lines` as Latin-1 bytes ending in \\n, \\r\\n and \\r in turn, and the line csv reads the first non-ASCII character on."""
    text = "".join(line + ("\n", "\r\n", "\r")[i % 3] for i, line in enumerate(lines))
    bad = next(i for i, line in enumerate(lines) if not line.isascii())
    reader = csv.reader(io.StringIO(text, newline=""))
    return text.encode("latin-1"), [reader.line_num for _ in reader][bad]


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
    return RealScenario(**base, n_values=[2], n_unlabeled=0)


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

    @pytest.mark.parametrize("line", [1, 2], ids=["header", "row"])
    def test_file_that_is_not_utf8_named(self, line, tmp_path):
        lines = ["a,b,y", "1,2,3"]
        lines[line - 1] += "\u00e9"
        path = tmp_path / "data.csv"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: not UTF-8 text: invalid continuation byte$"):
            load_csv(small_manifest(str(path)))

    @pytest.mark.parametrize("has_header", [True, False], ids=["header", "no header"])
    def test_bad_byte_past_the_first_8_kb_names_its_line(self, has_header, tmp_path):
        lines = (["a,b,y"] if has_header else []) + [f"{i / 7:.6f},{i % 5},{i}" for i in range(1200)]
        lines[900] += "\u00e9"
        path = tmp_path / "data.csv"
        body, line = mixed_line_ends(lines)
        path.write_bytes(b"\xef\xbb\xbf" + body)
        assert body.index(b"\xe9") > 8192
        columns = {} if has_header else dict(response_column=2, covariate_columns=[0, 1], has_header=False)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: not UTF-8 text: invalid continuation byte$"):
            load_csv(small_manifest(str(path), **columns))

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

    def test_empty_file_with_header_names_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(ValueError, match=r"^toy: .*data\.csv.* is empty, with no header row"):
            load_csv(small_manifest(path))

    def test_byte_order_mark_before_header_dropped(self, tmp_path):
        path = write_csv(tmp_path, "\ufeffa,b,y\n1,2,3\n")
        np.testing.assert_array_equal(load_csv(small_manifest(path)), [[1, 2, 3]])

    def test_byte_order_mark_without_header_dropped(self, tmp_path):
        path = write_csv(tmp_path, "\ufeff1,2,3\n4,5,6\n")
        manifest = small_manifest(path, response_column=2, covariate_columns=[0, 1], has_header=False)
        np.testing.assert_array_equal(load_csv(manifest), [[1, 2, 3], [4, 5, 6]])


def loaded(loader, manifest):
    """What a loader makes of a file: its table's shape and bytes, or its error's type and message."""
    try:
        table = loader(manifest)
    except ValueError as exc:
        return type(exc), str(exc)
    return table.dtype, table.shape, table.tobytes()


def abalone_like_table(seed):
    """The rows of the benchmark's abalone-shaped table (`bench/workloads.py`)."""
    return runpy.run_path(str(ROOT / "bench" / "workloads.py"), run_name="bench_workloads")["abalone_like_table"](seed)


# (file text, manifest changes): files the loader reads
EDGE_FILES = {
    "quoted cells": ('a,b,y\n"1",2,"3"\n4,"5.5",6\n', {}),
    "quoted header": ('"a","b","y"\n1,2,3\n', {}),
    "quoted delimiter in an unused column": ('n,a,b,y\n"x,y",1,2,3\n', dict(covariate_columns=["b"])),
    "padded cells": ("a,b,y\n 1 ,\t2, 3\n4 ,5,  6\n", {}),
    "exponent forms": ("a,b,y\n1e3,-2.5E-3,+.5\n7.,1e-308,0\n", {}),
    "semicolon": ("a;b;y\n1;2,5;3\n4;5;6\n", dict(delimiter=";", covariate_columns=["a"])),
    "tab": ("a\tb\ty\n1\t2\t3\n", dict(delimiter="\t")),
    "no header": ("1,2,3\n4,5,6", dict(response_column=0, covariate_columns=[2, 1], has_header=False)),
    "crlf": ("a,b,y\r\n1,2,3\r\n4,5,6\r\n", {}),
    "cr": ("a,b,y\r1,2,3\r4,5,6\r", {}),
    "extra and ragged columns": ("a,b,y,z\n1,2,3,x\n4,5,6\n7,8,9,1,2\n", {}),
    "digit underscores": ("a,b,y\n1_0,2,3\n", {}),
}

# (file text, manifest changes, line named): files both loaders reject
BAD_FILES = {
    "short row": ("a,b,y\n1,2,3\n1,2\n", {}, "line 3"),
    "non-numeric cell": ("a,b,y\n1,2,3\n4,x,6\n", {}, "line 3"),
    "nan": ("a,b,y\n1,2,3\n4,5,6\nnan,2,3\n", {}, "line 4"),
    "inf": ("a,b,y\n1,2,inf\n", {}, "line 2"),
    "overflow to inf": ("a,b,y\n1,2,3\n1e400,2,3\n", {}, "line 3"),
    "blank line in the middle": ("a,b,y\n1,2,3\n\n4,5,6\n", {}, "line 3"),
    "blank crlf line": ("a,b,y\r\n1,2,3\r\n\r\n4,5,6\r\n", {}, "line 3"),
    "trailing blank line": ("a,b,y\n1,2,3\n4,5,6\n\n", {}, "line 4"),
    "blank line, no final line end": ("a,b,y\n1,2,3\n\n4,5,6", {}, "line 3"),
    "leading blank line": ("\n1,2,3\n", dict(response_column=2, covariate_columns=[0, 1], has_header=False), "line 1"),
    "whitespace line": ("a,b,y\n1,2,3\n  \n", {}, "line 3"),
    "quoted non-numeric": ('a,b,y\n1,"2,5",3\n', {}, "line 2"),
    "header only": ("a,b,y\n", {}, "no data rows"),
    "empty with header": ("", {}, "is empty"),
    "empty without header": ("", dict(response_column=2, covariate_columns=[0, 1], has_header=False), "no data rows"),
}


class TestLoadCsvEqualsRowByRowReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_abalone_like_table(self, tmp_path, seed):
        path = write_csv(tmp_path, "\n".join(abalone_like_table(seed)) + "\n")
        manifest = small_manifest(path, response_column=8, covariate_columns=list(range(1, 8)), has_header=False)
        got = loaded(load_csv, manifest)
        assert got[1] == (4177, 8)
        assert got == loaded(load_csv_rows, manifest)

    @pytest.mark.parametrize("text, changes", EDGE_FILES.values(), ids=EDGE_FILES.keys())
    def test_edge_files(self, tmp_path, text, changes):
        manifest = small_manifest(write_csv(tmp_path, text), **changes)
        got = loaded(load_csv, manifest)
        assert got[0] == np.float64
        assert got == loaded(load_csv_rows, manifest)

    @pytest.mark.parametrize("text, changes, needle", BAD_FILES.values(), ids=BAD_FILES.keys())
    def test_rejected_files_name_the_same_line(self, tmp_path, text, changes, needle):
        manifest = small_manifest(write_csv(tmp_path, text), **changes)
        got = loaded(load_csv, manifest)
        assert got[0] is ValueError and needle in got[1]
        assert got == loaded(load_csv_rows, manifest)


def toy_table(rows=10, m=2, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.normal(size=(rows, m)), rng.normal(size=rows)])


class TestSplit:
    def test_sizes(self):
        table = toy_table(10)
        train, pool, test = split(table, 2, 3, seed=1)
        assert train.n == 2 and pool.n == 3 and test.n == 5

    def test_partition_no_duplicates(self):
        table = toy_table(20)
        train, pool, test = split(table, 5, 6, seed=2, standardize=False)
        recovered = np.vstack([train.X, pool.X, test.X])
        original = np.sort(table[:, :-1], axis=0)
        np.testing.assert_allclose(np.sort(recovered, axis=0), original)

    def test_same_seed_same_split(self):
        table = toy_table(15)
        a = split(table, 4, 5, seed=3)
        b = split(table, 4, 5, seed=3)
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[2].y, b[2].y)

    def test_standardize_centers_reference(self):
        table = toy_table(40)
        train, pool, _ = split(table, 10, 20, seed=4)
        reference = np.vstack([train.X, pool.X])
        np.testing.assert_allclose(reference.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(reference.std(axis=0), 1.0, atol=1e-10)

    def test_standardize_ignores_test_rows(self):
        # statistics must come from train + unlabeled rows only
        table = toy_table(40)
        train_raw, pool_raw, test_raw = split(table, 10, 20, seed=5, standardize=False)
        train_std, _, test_std = split(table, 10, 20, seed=5, standardize=True)
        reference = np.vstack([train_raw.X, pool_raw.X])
        mean, std = reference.mean(axis=0), reference.std(axis=0)
        np.testing.assert_allclose(test_std.X, (test_raw.X - mean) / std, atol=1e-12)
        np.testing.assert_allclose(train_std.X, (train_raw.X - mean) / std, atol=1e-12)

    def test_constant_column_not_divided(self):
        table = toy_table(12)
        table[:, 0] = 3.0
        train, _, _ = split(table, 4, 4, seed=6)
        assert np.isfinite(train.X).all()
        np.testing.assert_allclose(train.X[:, 0], 0.0, atol=1e-12)

    def test_responses_untouched(self):
        table = toy_table(12)
        train, _, _ = split(table, 4, 4, seed=7)
        assert set(np.round(train.y, 12)) <= set(np.round(table[:, -1], 12))

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant column"])
    def test_equals_the_part_by_part_reference(self, standardize, constant):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            rows, m = int(rng.integers(3, 80)), int(rng.integers(1, 9))
            table = toy_table(rows, m, seed) * 10.0 ** rng.integers(-3, 4)
            if constant:
                table[:, int(rng.integers(m))] = 0.3
            n = int(rng.integers(1, rows - 1))
            counts = n, int(rng.integers(0, rows - n)), seed, standardize
            got, ref = split(table, *counts), standardized_split(table, *counts)
            for part, expected in zip(got, ref):
                assert part.X.shape == expected.X.shape and part.X.tobytes() == expected.X.tobytes()
            for part, expected in ((got[0], ref[0]), (got[2], ref[2])):
                assert part.y.tobytes() == expected.y.tobytes()

    def test_infeasible_counts(self):
        table = toy_table(10)
        with pytest.raises(ValueError, match="infeasible"):
            split(table, 5, 5)
        with pytest.raises(ValueError, match="infeasible"):
            split(table, 0, 2)


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
