"""The A/B tool's summary of paired benchmark runs and its diff of CLI
outputs, on canned results."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(conv, rss, setup, failed=0):
    """A result line as pipebench/run.py prints it for an untraced run."""
    values = {"conv_min_per_s": conv, "peak_rss_mb": rss, "setup_s": setup}
    return {"correct": failed == 0, "attempted": 40, "failed": failed,
            "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}


def pairs(base, head):
    return [(result(*b), result(*h)) for b, h in zip(base, head)]


def by_name(rows):
    return {row["name"]: row for row in rows}


def test_a_clean_run_breaks_no_bound(ab):
    runs = [(100.0 + i, 44.0, 0.15) for i in range(4)]
    rows = ab.summarize(SPEC, pairs(runs, runs[::-1]))
    assert [row["verdict"] for row in rows] == ["within bound"] * 4
    assert ab.report(rows)[-1] == "broken bounds: 0"


def test_a_peak_rss_past_its_bound_is_broken(ab):
    # 46.5 MB is 5.7% above 44 MB, and peak_rss_mb may rise by 5%
    base = [(100.0, 44.0, 0.15)] * 3
    head = [(101.0, 46.5, 0.15)] * 3
    rows = by_name(ab.summarize(SPEC, pairs(base, head)))
    assert rows["peak_rss_mb"]["verdict"] == "BROKEN"
    assert rows["conv_min_per_s"]["verdict"] == "within bound"
    assert ab.report(rows.values())[-1] == "broken bounds: 1 (peak_rss_mb)"


def test_wins_are_counted_per_pair_and_a_gain_needs_ten_pairs_and_nine_wins(ab):
    base = [(100.0 + i % 3, 44.0, 0.15) for i in range(10)]
    head = [(120.0, 44.0, 0.15)] * 8 + [(100.0, 44.0, 0.15), (90.0, 44.0, 0.15)]
    rows = by_name(ab.summarize(SPEC, pairs(base, head)))
    row = rows["conv_min_per_s"]
    # pair 9 is a tie (100 against 100), and pair 10 a loss
    assert (row["wins"], row["pairs"], row["verdict"]) == (8, 10, "within bound")
    assert rows["setup_s"]["wins"] == 0
    head[8] = (120.0, 44.0, 0.15)
    row = by_name(ab.summarize(SPEC, pairs(base, head)))["conv_min_per_s"]
    assert (row["wins"], row["verdict"]) == (9, "gain")
    assert row["ratio"] == pytest.approx(1.2 / 1.01)
    row = by_name(ab.summarize(SPEC, pairs(base[:9], head[:9])))["conv_min_per_s"]
    assert (row["wins"], row["verdict"]) == (9, "within bound")


def test_a_head_that_fails_more_operations_is_broken(ab):
    run = (100.0, 44.0, 0.15)
    rows = by_name(ab.summarize(SPEC, [(result(*run), result(*run, failed=1))] * 2))
    assert rows["failed_ratio"]["verdict"] == "BROKEN"
    assert rows["failed_ratio"]["head"] == (1 / 40,) * 3


def test_spread_wider_than_the_bound_is_unresolved(ab):
    base = [(100.0, 44.0, 0.10), (100.0, 44.0, 0.20), (100.0, 44.0, 0.10), (100.0, 44.0, 0.20)]
    row = by_name(ab.summarize(SPEC, pairs(base, base)))["setup_s"]
    assert row["verdict"] == "unresolved"


def outcome(code=0, stdout="", stderr="", outputs=None):
    """One case's result as the --diff corpus runner records it."""
    return {"code": code, "stdout": stdout, "stderr": stderr, "outputs": outputs or {}}


CASES = [{"name": f"case {i}", "argv": ["analyze", "--trace", f"@t{i}.json"]} for i in range(5)]


def test_a_diff_of_equal_runs_is_all_identical(ab):
    runs = [outcome(), outcome(1, stderr="error: bad\n"), outcome(stdout="row\n", outputs={"t.json": "ab12"}),
            outcome(2, stderr="usage: dde\nerror: x\n"), outcome(code="raised KeyError: 'x'")]
    assert ab.compare(CASES, runs, [dict(r) for r in runs]) == {"cases": 5, "identical": 5, "differing": {}}


def test_differing_cases_are_grouped_by_the_first_stderr_line(ab):
    base = [outcome(), outcome(1, stderr="error: old text\n"), outcome(outputs={"t.json": "ab12"}),
            outcome(1, stderr="error: gone\n"), outcome(stdout="x\n")]
    head = [outcome(), outcome(1, stderr="error: new text\nmore\n"), outcome(outputs={"t.json": "cd34"}),
            outcome(), outcome(stdout="x\n", stderr="error: new text\n")]
    doc = ab.compare(CASES, base, head)
    assert (doc["cases"], doc["identical"]) == (5, 1)
    groups = doc["differing"]
    # the head's first line, else the base's; output bytes alone differ under "(no stderr)"
    assert {g: [c["case"] for c in cs] for g, cs in groups.items()} == {
        "error: new text": ["case 1", "case 4"], "(no stderr)": ["case 2"], "error: gone": ["case 3"]}
    case = groups["error: gone"][0]
    assert case["argv"] == CASES[3]["argv"] and (case["base"]["code"], case["head"]["code"]) == (1, 0)


def test_a_diff_needs_one_result_per_case_on_each_side(ab):
    with pytest.raises(ValueError):
        ab.compare(CASES, [outcome()] * 5, [outcome()] * 4)
