"""The statistics of tests/bench_pairs.py on fixed samples, and the file set
it compares between two trees. Spawning workers is not tested here."""

import pytest

from bench_pairs import _bench_files, compare


def test_compare_medians_wins_iqr_and_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 3.0, 4.0]
    lower = compare(parent, change, "lower")
    assert (lower["parent_median"], lower["change_median"]) == (3.0, 2.5)
    assert lower["relative_change"] == pytest.approx(-1 / 6)
    # pair 1 is a tie and counts for neither side
    assert (lower["change_wins"], lower["parent_wins"], lower["pairs"]) == (4, 0, 5)
    assert lower["parent_iqr"] == 3.0            # quartiles 1.5 and 4.5
    assert not lower["exceeds_parent_iqr"]
    assert lower["direction"] == "better"
    higher = compare(parent, change, "higher")
    assert (higher["change_wins"], higher["parent_wins"]) == (0, 4)
    assert higher["direction"] == "worse"


def test_compare_beyond_a_zero_iqr_and_same_medians():
    flat = compare([10.0] * 4, [11.0, 9.0, 10.0, 12.0], "lower")
    assert (flat["change_wins"], flat["parent_wins"]) == (1, 2)
    assert flat["parent_iqr"] == 0.0 and flat["exceeds_parent_iqr"]
    assert flat["relative_change"] == pytest.approx(0.05) and flat["direction"] == "worse"
    same = compare([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], "lower")
    assert same["direction"] == "same" and not same["exceeds_parent_iqr"]
    assert (same["change_wins"], same["parent_wins"]) == (1, 1)


def test_bench_files_skip_results_and_caches(tmp_path):
    for tree in ("a", "b"):
        (tmp_path / tree / "perfbench" / "tests").mkdir(parents=True)
        (tmp_path / tree / "BENCHMARK.json").write_text("{}")
        (tmp_path / tree / "perfbench" / "tests" / "test_x.py").write_text("x = 1\n")
    (tmp_path / "a" / "perfbench" / "results").mkdir()
    (tmp_path / "a" / "perfbench" / "results" / "r.json").write_text("{}")
    (tmp_path / "a" / "perfbench" / "__pycache__").mkdir()
    (tmp_path / "a" / "perfbench" / "__pycache__" / "w.pyc").write_bytes(b"\0")
    a, b = _bench_files(tmp_path / "a"), _bench_files(tmp_path / "b")
    assert a == b and set(a) == {"BENCHMARK.json", "perfbench/tests/test_x.py"}
    (tmp_path / "b" / "BENCHMARK.json").write_text('{"paths": []}')
    assert _bench_files(tmp_path / "b") != a
