"""File writers and readers: solution dumps, metrics files, sweep artifacts.

Writers use repr() float formatting, so every CSV round-trip is checked
for exact equality, and writing twice must produce identical bytes.
"""

from __future__ import annotations

import inspect
import json

import pytest

from mueflow import fixtures, reports
from mueflow.analysis import SweepResult, run_sweep, sweep_from_records
from mueflow.metrics import MetricsError, compute_report
from mueflow.reports import (
    METRICS_LINK_FIELDS,
    METRICS_SUMMARY_FIELDS,
    SOLUTION_COLUMNS,
    SWEEP_COLUMNS,
    metrics_to_dict,
    read_metrics_csv,
    read_series_csv,
    read_solution_csv,
    read_sweep_csv,
    solution_records,
    sweep_to_dict,
    write_metrics_csv,
    write_metrics_json,
    write_solution_csv,
    write_solution_json,
    write_sweep_csv,
    write_sweep_json,
    write_sweep_series,
)


@pytest.fixture(scope="module")
def small_sweep():
    net, od = fixtures.dual_route()
    cfg = fixtures.dual_route_config()
    return run_sweep(net, od, cfg, [0.0, 0.25, 0.5, 0.75, 1.0], method="pd")


@pytest.fixture(scope="module")
def one_level_sweep(small_sweep):
    """A partial sweep of one solved level: savings undefined, no steps."""
    sweep = sweep_from_records(small_sweep.records[:1])
    assert sweep.potential_savings == [None]
    assert sweep.ps_diffs == []
    return sweep


@pytest.fixture(scope="module")
def flat_sweep():
    """A flat travel-time series: savings are defined as all None."""
    return SweepResult.from_series([0.0, 0.5, 1.0], [12.0, 12.0, 12.0])


@pytest.fixture(scope="module")
def series_only_sweep():
    return SweepResult.from_series(
        [0.0, 0.5, 1.0], [20.0, 18.0, 17.5])


class TestSolutionFiles:
    def test_records_follow_network_link_order(self, dual_solution_mixed,
                                                dual_case):
        net, _, _ = dual_case
        records = solution_records(dual_solution_mixed, net)
        assert [r["link_id"] for r in records] == list(net.links)
        for r in records:
            assert r["flow_total"] == r["flow_gv"] + r["flow_ev"]
            assert r["voc"] == pytest.approx(
                r["flow_total"] / net.links[r["link_id"]].capacity)

    def test_csv_round_trip_is_exact(self, dual_solution_mixed, dual_case,
                                     tmp_path):
        net, _, _ = dual_case
        path = tmp_path / "solution.csv"
        write_solution_csv(dual_solution_mixed, net, path)
        rows = read_solution_csv(path)
        expected = solution_records(dual_solution_mixed, net)
        assert len(rows) == len(expected)
        for got, want in zip(rows, expected):
            assert got["link_id"] == want["link_id"]
            for col in SOLUTION_COLUMNS[1:]:
                assert got[col] == want[col]  # exact, via repr formatting

    def test_csv_header(self, dual_solution_mixed, dual_case, tmp_path):
        net, _, _ = dual_case
        path = tmp_path / "solution.csv"
        write_solution_csv(dual_solution_mixed, net, path)
        header = path.read_text().splitlines()[0]
        assert header == "link_id,flow_gv,flow_ev,flow_total,time,voc"

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("link,flow\nx,1.0\n")
        with pytest.raises(ValueError, match="expected columns"):
            read_solution_csv(path)

    def test_json_payload(self, dual_solution_mixed, dual_case, tmp_path):
        net, _, _ = dual_case
        path = tmp_path / "solution.json"
        write_solution_json(dual_solution_mixed, net, path)
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        payload = json.loads(text)
        assert payload["method"] == "pd"
        assert payload["converged"] is True
        assert payload["iterations"] > 0
        assert payload["wardrop_gap"] <= 1e-4
        assert payload["links"] == solution_records(dual_solution_mixed, net)
        assert isinstance(payload["gap_trace"], list)
        assert payload["gap_trace"][-1]["rel_gap"] <= 1e-4
        assert payload["duals"] == {}
        assert payload["skipped_intrazonal_demand"] == 0.0

    @pytest.mark.parametrize("write", [None, write_solution_csv,
                                       write_solution_json],
                             ids=["records", "csv", "json"])
    def test_solution_of_another_network_rejected(self, write,
                                                  dual_solution_mixed,
                                                  tmp_path):
        other, _ = fixtures.braess()
        with pytest.raises(MetricsError, match="does not match the network"):
            if write is None:
                solution_records(dual_solution_mixed, other)
            else:
                write(dual_solution_mixed, other, tmp_path / "solution.out")

    def test_writes_are_deterministic(self, dual_solution_mixed, dual_case,
                                      tmp_path):
        net, _, _ = dual_case
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_solution_csv(dual_solution_mixed, net, first)
        write_solution_csv(dual_solution_mixed, net, second)
        assert first.read_bytes() == second.read_bytes()
        jfirst, jsecond = tmp_path / "a.json", tmp_path / "b.json"
        write_solution_json(dual_solution_mixed, net, jfirst)
        write_solution_json(dual_solution_mixed, net, jsecond)
        assert jfirst.read_bytes() == jsecond.read_bytes()


@pytest.fixture(scope="module")
def report(dual_solution_mixed, dual_case):
    net, od, _ = dual_case
    return compute_report(dual_solution_mixed, net, od)


class TestMetricsFiles:
    def test_csv_round_trip_is_exact(self, report, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(report, path)
        scalars, links = read_metrics_csv(path)
        for field in METRICS_SUMMARY_FIELDS:
            assert scalars[field] == getattr(report, field)
        assert set(links) == set(report.voc_per_link)
        for lid, row in links.items():
            assert row["voc"] == report.voc_per_link[lid]
            assert row["congested_time"] == report.link_congested_time[lid]
            assert row["delay_factor"] == report.delay_factor[lid]

    def test_connectors_stay_out_of_link_rows(self, report, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(report, path)
        _, links = read_metrics_csv(path)
        assert set(links) == {"a", "b"}

    def test_json_matches_dict_form(self, report, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(report, path)
        payload = json.loads(path.read_text())
        assert payload == metrics_to_dict(report)
        assert set(payload) == {
            "avg_travel_time_mue", "avg_travel_time_ff", "voc_total", "rur",
            "voc_per_link", "link_congested_time", "delay_factor",
        }

    def test_reader_rejects_unknown_row_kind(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(
            ["kind", "link_id"] + METRICS_SUMMARY_FIELDS + METRICS_LINK_FIELDS)
        path.write_text(header + "\ntotals,,1,1,1,1,,,\n")
        with pytest.raises(ValueError, match="unknown row kind"):
            read_metrics_csv(path)


READERS = sorted(
    name for name, fn in inspect.getmembers(reports, inspect.isfunction)
    if name.startswith("read_"))
#: the header each reader expects
READER_COLUMNS = {
    "read_metrics_csv": reports.METRICS_COLUMNS,
    "read_series_csv": reports.SERIES_COLUMNS,
    "read_solution_csv": SOLUTION_COLUMNS,
    "read_sweep_csv": SWEEP_COLUMNS,
}


@pytest.mark.parametrize("name", READERS)
def test_every_reader_rejects_a_foreign_header(name, tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="expected columns") as info:
        getattr(reports, name)(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("name", READERS)
def test_every_reader_rejects_a_short_or_long_row(name, extra, tmp_path):
    assert sorted(READER_COLUMNS) == READERS
    width = len(READER_COLUMNS[name])
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join([",".join(READER_COLUMNS[name]),
                               ",".join(["1"] * width),
                               ",".join(["1"] * (width + extra))]) + "\n")
    with pytest.raises(ValueError,
                       match=f"line 3: {width + extra} cells, "
                             f"expected {width}") as info:
        getattr(reports, name)(path)
    assert str(path) in str(info.value)


class TestSweepFiles:
    def test_csv_round_trip(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        rows = read_sweep_csv(path)
        assert len(rows) == 5
        assert [r["penetration"] for r in rows] == small_sweep.levels
        assert [r["t_mue"] for r in rows] == small_sweep.avg_times
        assert rows[0]["dps"] is None  # no step difference at the first level
        assert [r["ps"] for r in rows] == small_sweep.potential_savings
        for row, rec in zip(rows[1:], small_sweep.records[1:]):
            assert row["voc_total"] == rec.report.voc_total
            assert row["rur"] == rec.report.rur

    def test_csv_header(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_sweep, path)
        assert path.read_text().splitlines()[0] == \
            "penetration,t_mue,ps,dps,voc_total,rur"
        assert SWEEP_COLUMNS == [
            "penetration", "t_mue", "ps", "dps", "voc_total", "rur"]

    def test_series_only_sweep_leaves_solver_columns_blank(
            self, series_only_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(series_only_sweep, path)
        rows = read_sweep_csv(path)
        assert all(r["voc_total"] is None and r["rur"] is None for r in rows)
        assert [r["t_mue"] for r in rows] == [20.0, 18.0, 17.5]

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("re,t\n0.0,1.0\n")
        with pytest.raises(ValueError, match="expected columns"):
            read_sweep_csv(path)

    def test_json_payload(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.json"
        write_sweep_json(small_sweep, path)
        payload = json.loads(path.read_text())
        assert payload["levels"] == small_sweep.levels
        assert payload["avg_travel_time_mue"] == small_sweep.avg_times
        assert payload["critical_thresholds"] == small_sweep.critical_thresholds
        assert payload["city_type"] == small_sweep.city_type
        assert len(payload["gradient"]) == 4
        assert payload["overlap_ratio"][0] is None
        assert len(payload["voc_total"]) == 5

    def test_json_without_records_omits_solver_series(
            self, series_only_sweep, tmp_path):
        path = tmp_path / "sweep.json"
        write_sweep_json(series_only_sweep, path)
        payload = json.loads(path.read_text())
        assert "overlap_ratio" not in payload
        assert "voc_total" not in payload
        assert payload["levels"] == [0.0, 0.5, 1.0]

    def test_series_files(self, small_sweep, tmp_path):
        paths = write_sweep_series(small_sweep, tmp_path)
        assert set(paths) == {"t_vs_re", "ps_vs_re", "voc_vs_re", "rur_vs_re"}
        for name, path in paths.items():
            assert path.name == f"{name}.csv"
            assert path.exists()
        t_series = read_series_csv(paths["t_vs_re"])
        assert [lv for lv, _ in t_series] == small_sweep.levels
        assert [v for _, v in t_series] == small_sweep.avg_times
        ps_series = read_series_csv(paths["ps_vs_re"])
        assert [v for _, v in ps_series] == small_sweep.potential_savings

    def test_series_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.0,1.0\n")
        with pytest.raises(ValueError, match="penetration,value"):
            read_series_csv(path)

    def test_sweep_writes_are_deterministic(self, small_sweep, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(small_sweep, a)
        write_sweep_csv(small_sweep, b)
        assert a.read_bytes() == b.read_bytes()

    def test_one_level_partial_sweep(self, one_level_sweep, tmp_path):
        report = one_level_sweep.records[0].report
        write_sweep_csv(one_level_sweep, tmp_path / "sweep.csv")
        assert read_sweep_csv(tmp_path / "sweep.csv") == [{
            "penetration": 0.0, "t_mue": report.avg_travel_time_mue,
            "ps": None, "dps": None,
            "voc_total": report.voc_total, "rur": report.rur,
        }]
        write_sweep_json(one_level_sweep, tmp_path / "sweep.json")
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["gradient"] == []
        assert payload["potential_savings"] == [None]
        assert payload["potential_savings_diff"] == []
        assert payload["voc_total"] == [report.voc_total]
        assert payload["rur"] == [report.rur]
        assert payload["overlap_ratio"] == [None]  # no EV class at 0.0
        paths = write_sweep_series(one_level_sweep, tmp_path)
        assert read_series_csv(paths["ps_vs_re"]) == [(0.0, None)]
        assert read_series_csv(paths["voc_vs_re"]) == [(0.0, report.voc_total)]
        assert read_series_csv(paths["rur_vs_re"]) == [(0.0, report.rur)]

    def test_flat_series_sweep(self, flat_sweep, tmp_path):
        write_sweep_csv(flat_sweep, tmp_path / "sweep.csv")
        rows = read_sweep_csv(tmp_path / "sweep.csv")
        assert [r["t_mue"] for r in rows] == [12.0, 12.0, 12.0]
        for column in ("ps", "dps", "voc_total", "rur"):
            assert [r[column] for r in rows] == [None, None, None], column
        write_sweep_json(flat_sweep, tmp_path / "sweep.json")
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["potential_savings"] == [None, None, None]
        assert payload["potential_savings_diff"] == [None, None]
        assert "voc_total" not in payload and "rur" not in payload
        paths = write_sweep_series(flat_sweep, tmp_path)
        assert read_series_csv(paths["t_vs_re"]) == [
            (0.0, 12.0), (0.5, 12.0), (1.0, 12.0)]
        for name in ("ps_vs_re", "voc_vs_re", "rur_vs_re"):
            assert read_series_csv(paths[name]) == [
                (0.0, None), (0.5, None), (1.0, None)], name
