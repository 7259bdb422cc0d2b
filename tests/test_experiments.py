"""Experiment runners and persistence."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_count_smooth
from smoothlab import (
    ExperimentConfig,
    ResultRecord,
    UnsmoothingRecord,
    export_results,
    load_results,
    max_discrepancy,
    power_subgroup,
    run_coset,
    run_equidistribution,
    run_unsmoothing,
    unsmoothing_ratio,
    unsmoothing_slopes,
)
from smoothlab import smooth_core
from smoothlab.errors import ExportError, ThresholdExceededError
from smoothlab.experiments import CSV_COLUMNS, export_plot_data, export_unsmoothing


def test_equidistribution_fixture():
    cfg = ExperimentConfig(xs=(100.0,), ys=(5.0,), qs=(3,))
    recs = run_equidistribution(cfg)
    counts = {r.a: r.count for r in recs}
    assert counts == {1: 8, 2: 7}
    assert all(type(c) is int for c in counts.values())
    assert all(r.expected == pytest.approx(7.5) for r in recs)
    assert max_discrepancy(recs)[(100.0, 5.0, 3)] == pytest.approx(1 / 15)


def test_single_class_has_zero_discrepancy():
    cfg = ExperimentConfig(xs=(1000.0,), ys=(10.0,), qs=(2,))
    recs = run_equidistribution(cfg)
    assert len(recs) == 1
    assert recs[0].discrepancy == 0.0


@given(
    x=st.integers(min_value=20, max_value=400),
    y=st.floats(min_value=2, max_value=20),
    q=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=20)
def test_row_sum_conservation(x, y, q):
    if y > x:
        return
    cfg = ExperimentConfig(xs=(float(x),), ys=(y,), qs=(q,))
    recs = run_equidistribution(cfg)
    assert sum(r.count for r in recs) == brute_count_smooth(x, y, q)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(xs=(100.0,), ys=(5.0,), qs=(1,))
    with pytest.raises(ValueError):
        ExperimentConfig(xs=(10.0,), ys=(50.0,), qs=(3,))
    with pytest.raises(ValueError):
        ExperimentConfig(xs=(100.0,), ys=(5.0,), qs=(3,), epsilons=(1.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(xs=(100.0,), ys=(5.0,), qs=(3,), output_format="xml")


@pytest.mark.parametrize(
    "xs, ys",
    [
        ((100.0, math.nan), (5.0,)),
        ((100.0, math.inf), (5.0,)),
        ((100.0,), (1.5,)),
        ((100.0,), (5.0, math.nan)),
    ],
    ids=["x_nan", "x_inf", "y_below_2", "y_nan"],
)
def test_config_rejects_non_finite_x_and_small_y(xs, ys):
    with pytest.raises(ValueError):
        ExperimentConfig(xs=xs, ys=ys, qs=(3,))


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"xs": [100.0], "ys": [5.0], "qs": [3], "epsilons": [0.0, 0.1]})
    )
    cfg = ExperimentConfig.from_json(path)
    assert cfg.xs == (100.0,) and cfg.epsilons == (0.0, 0.1)


def test_config_from_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"xs": [100.0], "ys": [5.0], "qs": [3], "kernel_lo": 0.5}))
    with pytest.raises(ValueError, match="unknown config keys: kernel_lo"):
        ExperimentConfig.from_json(path)


_GRID = {"xs": [100.0], "ys": [5.0], "qs": [3]}


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config"),
        (json.dumps({**_GRID, "xs": 100.0}), "config field xs must be a list"),
        (json.dumps({**_GRID, "epsilons": 0.1}), "config field epsilons must be a list"),
        (json.dumps([_GRID]), "a config must be a JSON object"),
        (json.dumps({**_GRID, "qs": [3.5]}), "qs and order_threshold must be integers"),
        (json.dumps({**_GRID, "order_threshold": "2"}), "qs and order_threshold must be integers"),
        (json.dumps({**_GRID, "order_threshold": True}), "qs and order_threshold must be integers"),
        (json.dumps({**_GRID, "xs": ["100"]}), "xs, ys and epsilons must hold numbers"),
        (json.dumps({**_GRID, "output_path": 2}), "output_path must be a path"),
        (
            json.dumps({**_GRID, "qs": [3, 1000000007]}),
            "modulus 1000000007 exceeds the table bound 1000000",
        ),
        ("{", "Expecting property name"),
    ],
    ids=[
        "missing_file", "xs_not_list", "epsilons_not_list", "top_level_list", "q_not_int",
        "order_threshold_str", "order_threshold_bool", "x_str", "output_path_int",
        "q_above_table_bound", "malformed_json",
    ],
)
def test_bad_config_json_raises_value_error(tmp_path, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(path)


# -- cosets ----------------------------------------------------------------------


def test_power_subgroup_squares_mod5():
    assert power_subgroup(5, 2) == [1, 4]


def test_coset_pairs_mod5():
    cfg = ExperimentConfig(xs=(1000.0,), ys=(10.0,), qs=(5,), order_threshold=2)
    recs = run_coset(cfg)
    labels = sorted(r.a for r in recs)
    assert labels == ["1H:1/4", "2H:2/3"]
    assert all(type(r.count) is int for r in recs)
    for r in recs:
        assert r.discrepancy == pytest.approx(abs(r.count) * 4 / sum(
            brute_count_smooth(1000, 10.0, 5, a) for a in (1, 2, 3, 4)
        ))


def test_coset_full_group_reduces_to_spreads():
    # the first powers are the whole unit group: one coset
    cfg = ExperimentConfig(xs=(500.0,), ys=(10.0,), qs=(5,), order_threshold=1)
    recs = run_coset(cfg)
    assert len(recs) == 6  # all unordered pairs of the four classes


def test_power_subgroup_is_a_subgroup():
    for q in range(2, 61):
        for k in range(-3, 7):
            h = power_subgroup(q, k)
            assert 1 in h
            assert all(math.gcd(a, q) == 1 for a in h)
            assert all(a * b % q in h for a in h for b in h)


# -- unsmoothing ---------------------------------------------------------------------


def test_unsmoothing_fixtures():
    assert unsmoothing_ratio(100.0, 5.0, 1, 0.0) == 0.0
    assert unsmoothing_ratio(100.0, 5.0, 1, 1.0) == 1.0
    assert unsmoothing_ratio(100.0, 5.0, 1, 0.1) == pytest.approx(2 / 34)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.5, 5.0, 1, 0.1), "threshold x must be finite and >= 1"),
        ((math.nan, 5.0, 1, 0.1), "threshold x must be finite and >= 1"),
        ((100.0, 1.5, 1, 0.1), "smoothness bound y must be finite and >= 2"),
        ((100.0, 5.0, 0, 0.1), "modulus q must be >= 1"),
        ((100.0, 5.0, 1, 1.5), "epsilon must lie in \\[0, 1\\]"),
    ],
    ids=["x_below_1", "x_nan", "y_below_2", "q_below_1", "epsilon_above_1"],
)
def test_unsmoothing_ratio_validates_its_arguments(args, message):
    with pytest.raises(ValueError, match=message):
        unsmoothing_ratio(*args)


def test_unsmoothing_below_one_loses_everything():
    assert unsmoothing_ratio(100.0, 5.0, 1, 0.995) == 1.0
    cfg = ExperimentConfig(xs=(100.0,), ys=(5.0,), qs=(3,), epsilons=(0.0, 0.995))
    recs = run_unsmoothing(cfg)
    assert [(r.epsilon, r.ratio) for r in recs] == [(0.0, 0.0), (0.995, 1.0)]


def test_unsmoothing_matches_brute_force():
    epsilons = (0.0, 0.1, 0.37, 0.5, 0.9, 0.995, 1.0)
    cfg = ExperimentConfig(xs=(100.0, 250.0), ys=(5.0, 7.5), qs=(3, 4), epsilons=epsilons)
    got = {(r.x, r.y, r.q, r.epsilon): r.ratio for r in run_unsmoothing(cfg)}
    assert len(got) == 2 * 2 * 2 * len(epsilons)
    for (x, y, q, eps), ratio in got.items():
        total = brute_count_smooth(x, y, q)
        kept = brute_count_smooth((1 - eps) * x, y, q)
        assert ratio == (total - kept) / total


def _no_enumeration(*args):
    raise AssertionError("enumeration started")


@pytest.mark.parametrize("run", [run_equidistribution, run_coset, run_unsmoothing])
def test_every_mode_honours_the_ceiling(run, monkeypatch):
    # the refusal comes before smooth_values reads a single prime
    monkeypatch.setattr(smooth_core, "primes_upto", _no_enumeration)
    with pytest.raises(ThresholdExceededError, match="exceeds the enumeration ceiling"):
        run(ExperimentConfig(xs=(2e8,), ys=(5.0,), qs=(3,)))


def test_unsmoothing_run_and_slopes():
    cfg = ExperimentConfig(
        xs=(1e4,), ys=(10.0,), qs=(3,), epsilons=(0.0, 0.1, 0.2, 0.5, 1.0)
    )
    recs = run_unsmoothing(cfg)
    assert len(recs) == 5
    by_eps = {r.epsilon: r.ratio for r in recs}
    assert by_eps[0.0] == 0.0 and by_eps[1.0] == 1.0
    assert all(0 <= r.ratio <= 1 for r in recs)
    slopes = unsmoothing_slopes(recs)
    assert 0 < slopes[(1e4, 10.0, 3)] <= 5.0


# -- persistence -----------------------------------------------------------------------


def _sample_record():
    return ResultRecord(
        x=100.0, y=5.0, q=3, a=1, count=8, expected=7.5,
        discrepancy=1 / 15, u=2.861353116147, v=4.19180654858, w=4.19180654858,
        alpha=0.489177988220,
    )


def test_empty_export_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_results([], "csv", path)
    assert path.read_bytes() == b"x,y,q,a,count,expected,discrepancy,u,v,w,alpha\r\n"


def test_single_record_round_trip(tmp_path):
    path = tmp_path / "one.csv"
    export_results([_sample_record()], "csv", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    back = load_results(path)
    assert len(back) == 1
    rec = back[0]
    assert (rec.x, rec.y, rec.q, rec.a, rec.count) == (100.0, 5.0, 3, 1, 8.0)
    assert rec.discrepancy == pytest.approx(1 / 15, abs=1e-11)


def test_full_grid_row_count(tmp_path):
    cfg = ExperimentConfig(xs=(200.0, 400.0), ys=(5.0, 7.0), qs=(3, 4, 5))
    recs = run_equidistribution(cfg)
    phis = {3: 2, 4: 2, 5: 4}
    assert len(recs) == 2 * 2 * sum(phis.values())
    path = tmp_path / "grid.csv"
    export_results(recs, "csv", path)
    assert len(path.read_text().splitlines()) == 1 + len(recs)


def test_export_deterministic_and_sorted(tmp_path):
    cfg = ExperimentConfig(xs=(300.0, 100.0), ys=(5.0,), qs=(5, 3))
    recs = run_equidistribution(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_results(recs, "csv", p1)
    export_results(list(reversed(recs)), "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = [line.split(",") for line in p1.read_text().splitlines()[1:]]
    keys = [(float(r[0]), float(r[1]), int(r[2]), int(r[3])) for r in rows]
    assert keys == sorted(keys)


def test_json_export_mirrors_fields(tmp_path):
    path = tmp_path / "out.json"
    export_results([_sample_record()], "json", path)
    data = json.loads(path.read_text())
    assert set(data[0]) == set(CSV_COLUMNS)
    assert data[0]["count"] == 8


def test_json_export_round_trips_coset_records(tmp_path):
    recs = run_coset(ExperimentConfig(xs=(1000.0,), ys=(10.0,), qs=(5, 7)))
    path = tmp_path / "coset.json"
    export_results(recs, "json", path)
    back = [ResultRecord(**row) for row in json.loads(path.read_text())]
    assert sorted(back, key=lambda r: (r.q, r.a)) == sorted(recs, key=lambda r: (r.q, r.a))


@pytest.mark.parametrize(
    "write",
    [
        lambda path: export_results([_sample_record()], "csv", path),
        lambda path: export_unsmoothing([UnsmoothingRecord(1e3, 10.0, 3, 0.5, 0.25)], path),
        lambda path: export_plot_data([_sample_record()], path),
    ],
    ids=["results", "unsmoothing", "plot_data"],
)
def test_export_error_carries_path(write):
    with pytest.raises(ExportError, match="no/such/dir"):
        write("no/such/dir/out.csv")


def test_unsmoothing_and_plot_data_exports(tmp_path):
    cfg = ExperimentConfig(xs=(1e3,), ys=(10.0,), qs=(3, 7), epsilons=(0.0, 0.5))
    urecs = run_unsmoothing(cfg)
    upath = tmp_path / "u.csv"
    export_unsmoothing(urecs, upath)
    assert upath.read_text().splitlines()[0] == "x,y,q,epsilon,ratio"
    recs = run_equidistribution(cfg)
    ppath = tmp_path / "p.csv"
    export_plot_data(recs, ppath)
    lines = ppath.read_text().splitlines()
    assert lines[0] == "v,max_discrepancy"
    assert len(lines) == 3
    vs = [float(l.split(",")[0]) for l in lines[1:]]
    assert vs == sorted(vs)
    assert vs[0] == pytest.approx(math.log(1e3) / math.log(7))
