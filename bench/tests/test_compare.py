"""``bench/compare.py`` verdicts and exit codes."""

import json

from bench.compare import compare, exit_code, load_runs, verdict

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
}


def results(op_s, rate=2.0, error_rate=0.0):
    return {"workloads": {"w": {
        "error_rate": error_rate,
        "metrics": {
            "op_p50_s": {"value": op_s, "unit": "s"},
            "ops_per_s": {"value": rate, "unit": "1/s"},
        },
    }}}


def write_side(tmp_path, name, op_values):
    """One directory of runs, one ``results.json`` per run."""
    for k, value in enumerate(op_values):
        run_dir = tmp_path / name / str(k)
        run_dir.mkdir(parents=True)
        (run_dir / "results.json").write_text(json.dumps(results(value)))
    return tmp_path / name


def test_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0]
    assert verdict(steady, steady, 0.1, "lower")[0] == "same"
    assert verdict(steady, [x * 1.3 for x in steady], 0.1, "lower")[0] \
        == "worse"
    assert verdict(steady, [x * 0.7 for x in steady], 0.1, "lower")[0] \
        == "better"
    # Higher is better: a 30% drop is a regression.
    assert verdict(steady, [x * 0.7 for x in steady], 0.1, "higher")[0] \
        == "worse"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [1.0, 1.5, 0.6, 1.2]
    assert verdict(noisy, [1.05, 1.4, 0.7, 1.1], 0.1, "lower")[0] \
        == "unresolved"
    # ...unless every change sample beats every parent sample.
    assert verdict(noisy, [0.1, 0.2, 0.15, 0.12], 0.1, "lower")[0] \
        == "better"


def test_rows_and_error_rate():
    rows = compare(SPEC, [results(1.0)], [results(1.02, error_rate=0.25)])
    verdicts = {row[1]: row[-1] for row in rows}
    assert verdicts == {"op_p50_s": "same", "ops_per_s": "same",
                        "error_rate": "worse"}
    assert exit_code(rows) == 1


def test_exit_codes_over_directories_of_runs(tmp_path):
    base = load_runs(write_side(tmp_path, "base", [1.0, 1.0, 1.01, 0.99]))
    same = load_runs(write_side(tmp_path, "same", [1.0, 1.01, 0.99, 1.02]))
    slow = load_runs(write_side(tmp_path, "slow", [1.5, 1.5, 1.51, 1.49]))
    noisy = load_runs(write_side(tmp_path, "noisy", [1.0, 2.0, 0.5, 1.6]))
    assert len(base) == 4
    assert exit_code(compare(SPEC, base, same)) == 0
    assert exit_code(compare(SPEC, base, slow)) == 1
    assert exit_code(compare(SPEC, base, noisy)) == 2


def test_single_runs_compare_by_value():
    assert exit_code(compare(SPEC, [results(1.0)], [results(1.05)])) == 0
    assert exit_code(compare(SPEC, [results(1.0)], [results(1.2)])) == 1
