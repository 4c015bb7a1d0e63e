"""``tools/ab.py``'s trees, statistics, peak RSS and parity check, imported
by path; the timing runs themselves are not exercised here."""

import importlib.util
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_bootstrap_median_is_the_overall_median():
    groups = [[1.0, 9.0, 3.0], [4.0, 2.0, 8.0], [7.0, 5.0, 6.0], [0.5, 10.0, 4.5]]
    med, lo, hi = ab.bootstrap_median(groups)
    assert med == 4.75
    assert lo <= med <= hi


def test_bootstrap_median_of_constant_groups_has_zero_width():
    assert ab.bootstrap_median([[0.97] * 5] * 4) == (0.97, 0.97, 0.97)


def test_peak_rss_is_the_largest_of_a_side_in_mb():
    results = [{"maxrss_kb": 1024, "cpu_s": 0.5}, {"maxrss_kb": 5120, "tags": []},
               {"maxrss_kb": 2048}]
    assert ab.peak_rss_mb(results) == 5.0


def test_check_passes_equal_outputs():
    assert ab.check("train_hme", 3, {"loss": 2.5}, {"loss": 2.5}) is None
    assert ab.check("predict_fresh", 3, {"tags": [["O", "B-x"]]},
                    {"tags": [["O", "B-x"]]}) is None


@pytest.mark.parametrize("rel, flagged", [(0.5, False), (2.0, True), (-2.0, True)])
def test_check_flags_a_loss_gap_above_the_tolerance(rel, flagged):
    a = {"loss": 2.5}
    b = {"loss": 2.5 * (1.0 + rel * ab.LOSS_RTOL)}
    problem = ab.check("train_hme", 7, a, b)
    assert (problem is not None) == flagged
    if flagged:
        assert problem.startswith("step 7: loss ")


def test_check_flags_any_tag_difference():
    a = {"tags": [["O", "B-x"], ["O"]]}
    for tags in ([["O", "I-x"], ["O"]], [["O", "B-x"]], [["O", "B-x"], ["O"], ["O"]]):
        assert ab.check("predict_fresh", 2, a, {"tags": tags}) == "request 2: tags differ"


def test_both_trees_have_paths_of_one_length_and_b_holds_the_working_src(tmp_path):
    a_tree, b_tree = ab.trees(str(tmp_path))
    assert a_tree != b_tree
    assert len(a_tree) == len(b_tree)
    assert os.path.dirname(a_tree) == os.path.dirname(b_tree) == str(tmp_path)
    ab.copy_src(b_tree)

    def files(root):
        out = {}
        for folder, dirs, names in os.walk(root):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in names:
                path = os.path.join(folder, name)
                out[os.path.relpath(path, root)] = Path(path).read_bytes()
        return out

    copied = files(os.path.join(b_tree, "src"))
    assert copied == files(os.path.join(ab.ROOT, "src"))
    assert "hme/labeler.py" in copied
    assert not any("__pycache__" in folder for folder, _, _ in os.walk(b_tree))
