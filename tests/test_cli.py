"""Command-line interface: exit codes, artifacts, stdout contracts.

Most tests drive ``main(argv)`` in-process and parse stdout with capsys;
determinism and env-var behavior run the installed module in a
subprocess.  Input files come from ``fixtures.write_fixture_files``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from mueflow import fixtures
from mueflow.cli import (
    EXIT_INFEASIBLE,
    EXIT_ITERATION_CAP,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_levels,
)
from mueflow.cost import dump_cost_config
from mueflow.reports import read_solution_csv, read_sweep_csv


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("dual_route_inputs")
    return fixtures.write_fixture_files("dual_route", outdir)


@pytest.fixture(scope="module")
def grid_case(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("grid3x3_inputs")
    return fixtures.write_fixture_files("grid3x3", outdir)


def base_args(case, *, zones=True):
    args = ["--network", str(case["nodes"]), "--links", str(case["links"]),
            "--od", str(case["od"])]
    if zones:
        args += ["--zones", str(case["zones"])]
    return args


def last_json_line(captured):
    return json.loads(captured.out.strip().splitlines()[-1])


class TestParseLevels:
    def test_grid_form(self):
        levels = parse_levels("0:1:21")
        assert len(levels) == 21
        assert levels[0] == 0.0 and levels[-1] == 1.0
        assert levels[10] == pytest.approx(0.5)

    def test_comma_list(self):
        assert parse_levels("0, 0.5 ,1") == [0.0, 0.5, 1.0]

    def test_bad_grids(self):
        with pytest.raises(ValueError, match="lo:hi:n"):
            parse_levels("0:1")
        with pytest.raises(ValueError, match="n >= 2"):
            parse_levels("0:1:1")
        with pytest.raises(ValueError, match="no values"):
            parse_levels(" , ")

    def test_grid_endpoint_is_exact(self):
        assert parse_levels("0:1:3")[-1] == 1.0
        assert parse_levels("0.1:0.7:7")[-1] == 0.7


class TestValidate:
    def test_counts_line(self, case, capsys):
        code = main(["validate"] + base_args(case))
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out == ("2 zones, 4 nodes, 2 road + 4 connector links, "
                       "1 OD pairs, demand 100")

    def test_missing_files_collected(self, case, capsys):
        code = main([
            "validate", "--network", str(case["nodes"]),
            "--links", "/nonexistent/links.csv",
            "--od", "/nonexistent/od.csv",
        ])
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert len(payload["errors"]) == 2
        assert any("--links" in e for e in payload["errors"])
        assert any("--od" in e for e in payload["errors"])

    def test_unknown_zone_reference(self, case, tmp_path, capsys):
        od = tmp_path / "od.csv"
        od.write_text("origin_zone,destination_zone,demand\nA,Nowhere,10\n")
        code = main(["validate"] + base_args(case)[:-2] + ["--od", str(od),
                                                           "--zones",
                                                           str(case["zones"])])
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert payload["errors"] == ["OD references unknown zones: Nowhere"]

    def test_multiple_input_errors_reported_together(self, case, tmp_path,
                                                     capsys):
        links = tmp_path / "links.csv"
        links.write_text(
            "link_id,from,to,length,length_unit,capacity,"
            "free_flow_speed,speed_unit,hierarchy\n"
            "a,n1,n2,6.0,mi,-5,30,mph,highway\n"
        )
        od = tmp_path / "od.csv"
        od.write_text("origin_zone,destination_zone,demand\nA,B,-1\n")
        code = main([
            "validate", "--network", str(case["nodes"]),
            "--links", str(links), "--od", str(od),
            "--zones", str(case["zones"]),
        ])
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert len(payload["errors"]) == 2

    @pytest.mark.parametrize("rows, message", [
        ("A,B,-1", "demand for ('A', 'B') must be finite and >= 0"),
        ("A,B,100\nA,B,5", "duplicate OD pair ('A', 'B')"),
    ], ids=["negative", "duplicate"])
    def test_bad_od_demand_names_the_file(self, case, tmp_path, capsys,
                                          rows, message):
        od = tmp_path / "od.csv"
        od.write_text(f"origin_zone,destination_zone,demand\n{rows}\n")
        code = main(["solve"] + base_args(dict(case, od=od))
                    + ["--cost-config", str(case["cost"]),
                       "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        (error,) = last_json_line(capsys.readouterr())["errors"]
        assert error == f"{od}: {message}"

    @pytest.mark.parametrize("kind", ["nodes", "links", "zones", "od"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_short_or_long_row_named(self, case, tmp_path, capsys, kind,
                                     extra):
        lines = case[kind].read_text().splitlines()
        cells = lines[1].split(",")
        ragged = cells[:-1] if extra < 0 else cells + ["x"]
        bad = dict(case, **{kind: tmp_path / f"{kind}.csv"})
        bad[kind].write_text("\n".join(lines + [",".join(ragged)]) + "\n")
        code = main(["validate"] + base_args(bad))
        assert code == EXIT_VALIDATION
        (error,) = last_json_line(capsys.readouterr())["errors"]
        assert error == (f"{bad[kind]}: line {len(lines) + 1}: "
                         f"{len(ragged)} cells, expected {len(cells)}")

    def test_non_finite_node_coordinate_named(self, grid_case, tmp_path,
                                              capsys):
        # a NaN coordinate wins every nearest-node search; unchecked, every
        # zone would attach to n00 and the error would name the connectors
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(grid_case["nodes"].read_text().replace(
            "n00,0.0,", "n00,nan,"))
        code = main(["validate", "--network", str(nodes),
                     "--links", str(grid_case["links"]),
                     "--od", str(grid_case["od"]),
                     "--zones", str(grid_case["zones"])])
        assert code == EXIT_VALIDATION
        (error,) = last_json_line(capsys.readouterr())["errors"]
        assert "non-finite coordinates for node 'n00'" in error


class TestSolve:
    def test_mixed_fleet_artifacts(self, case, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--penetration", "0.5",
               "--method", "pd", "--out", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "penetration=0.5 method=pd converged=True" in stdout
        assert "T_MUE=" in stdout and "RUR=" in stdout
        for name in ("solution.csv", "metrics.csv", "solution.json",
                     "metrics.json"):
            assert (out / name).exists()
            assert f"wrote {out / name}" in stdout
        rows = {r["link_id"]: r for r in read_solution_csv(out / "solution.csv")}
        assert rows["a"]["flow_total"] == pytest.approx(50.0, abs=0.05)
        assert rows["a"]["flow_ev"] == pytest.approx(0.0, abs=0.05)
        assert rows["b"]["flow_ev"] == pytest.approx(50.0, abs=0.05)

    def test_format_selects_artifacts(self, case, tmp_path, capsys):
        out = tmp_path / "jsononly"
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--format", "json",
               "--out", str(out)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        assert (out / "solution.json").exists()
        assert (out / "metrics.json").exists()
        assert not (out / "solution.csv").exists()
        assert not (out / "metrics.csv").exists()

    def test_bad_format_rejected(self, case, capsys):
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--format", "yaml"]
        )
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert "csv, json" in payload["errors"][0]

    @pytest.mark.parametrize("gap", ["nan", "inf"])
    def test_non_finite_rel_gap_rejected(self, case, tmp_path, capsys, gap):
        # an infinite tolerance once passed a gap of 0.44 as converged
        out = tmp_path / gap
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--rel-gap", gap,
               "--out", str(out)]
        )
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert "rel_gap_tol" in payload["errors"][0]
        assert not out.exists()

    def test_bundled_city_name_accepted(self, case, tmp_path, capsys):
        out = tmp_path / "sf"
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", "san_francisco", "--out", str(out)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        assert (out / "solution.json").exists()

    def test_unknown_city_lists_bundled_names(self, case, capsys):
        code = main(
            ["solve"] + base_args(case) + ["--cost-config", "gotham"]
        )
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert "bundled names" in payload["errors"][0]
        assert "san_francisco" in payload["errors"][0]

    @pytest.mark.parametrize("text, message", [
        ('{"p_gas": Infinity, "p_ele": 0.1}',
         "p_gas must be a finite number, got inf"),
        ('{"p_gas": 3.0, "p_ele": 0.1, "gv_components": [1, 2]}',
         "gv_components must map component names"),
        ('{"p_gas": 3.0, "p_ele": 0.1, "mpg_gv": 1e-320}',
         "class cost overflows: {'gv': inf"),
        ('{"p_gas": 3.0, "p_ele": 0.1, "bpr_beta": true}',
         "bpr_beta must be a finite number, got True"),
        ('{"p_gas": true, "p_ele": 0.1}',
         "p_gas must be a finite number, got True"),
    ], ids=["infinite-price", "component-list", "overflow", "bool-exponent",
            "bool-price"])
    def test_bad_cost_config_rejected(self, case, tmp_path, capsys, text,
                                      message):
        cost = tmp_path / "cost.json"
        cost.write_text(text + "\n")
        code = main(["solve"] + base_args(case)
                    + ["--cost-config", str(cost), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        (error,) = last_json_line(capsys.readouterr())["errors"]
        assert message in error

    def test_cost_config_required(self, case, capsys):
        code = main(["solve"] + base_args(case))
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert payload["errors"] == ["--cost-config is required for this command"]

    def test_penetration_out_of_range(self, case, capsys):
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--penetration", "1.5"]
        )
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert "penetration" in payload["errors"][0]

    def test_iteration_cap_writes_partial_outputs(self, grid_case, tmp_path,
                                                  capsys):
        out = tmp_path / "capped"
        code = main(
            ["solve"] + base_args(grid_case)
            + ["--cost-config", str(grid_case["cost"]), "--method", "fw",
               "--rel-gap", "1e-12", "--max-iters", "3", "--out", str(out)]
        )
        assert code == EXIT_ITERATION_CAP
        captured = capsys.readouterr()
        assert (out / "solution.csv").exists()
        assert (out / "metrics.json").exists()
        payload = last_json_line(captured)
        assert "iteration cap 3 reached" in payload["errors"][0]
        assert "converged=False" in captured.out

    def test_infeasible_demand(self, case, tmp_path, capsys):
        od = tmp_path / "od.csv"
        od.write_text("origin_zone,destination_zone,demand\nB,A,10\n")
        code = main(
            ["solve", "--network", str(case["nodes"]),
             "--links", str(case["links"]), "--zones", str(case["zones"]),
             "--od", str(od), "--cost-config", str(case["cost"]),
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_INFEASIBLE
        payload = last_json_line(capsys.readouterr())
        assert "no route" in payload["errors"][0]

    def test_capacity_constraints_flow_through(self, case, tmp_path, capsys):
        caps = tmp_path / "caps.json"
        caps.write_text('{"a": 25.0}\n')
        cost = tmp_path / "time_only.json"
        dump_cost_config(fixtures.time_only_config(), cost)
        out = tmp_path / "capped"
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(cost), "--method", "pd",
               "--capacity-constraints", str(caps), "--out", str(out)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        payload = json.loads((out / "solution.json").read_text())
        assert payload["duals"]["a"] == pytest.approx(0.96875, abs=1e-3)
        flows = {r["link_id"]: r["flow_total"] for r in payload["links"]}
        assert flows["a"] == pytest.approx(25.0, abs=1e-3)

    def test_capacity_constraints_need_path_solver(self, case, tmp_path,
                                                   capsys):
        caps = tmp_path / "caps.json"
        caps.write_text('{"a": 25.0}\n')
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--method", "bfw",
               "--capacity-constraints", str(caps)]
        )
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert "path-based" in payload["errors"][0]

    def test_capacity_constraints_validated(self, case, tmp_path, capsys):
        caps = tmp_path / "caps.json"
        caps.write_text('{"ghost": 25.0, "a": -1}\n')
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(case["cost"]),
               "--capacity-constraints", str(caps)]
        )
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert "unknown link 'ghost'" in payload["errors"][0]
        assert "non-positive capacity for link 'a'" in payload["errors"][0]

    @pytest.mark.parametrize("text, message", [
        ("{not json", "invalid JSON"),
        ("[25.0]", "expected a JSON object"),
        ("{}", "expected a non-empty JSON object"),
        ('{"a": "wide"}', "non-numeric capacity for link 'a'"),
        # an infinite cap once ran a pd solve unconverged to exit 3, and
        # ``true`` was taken as a cap of 1 veh/h
        ('{"a": Infinity}', "non-finite capacity for link 'a'"),
        ('{"a": "inf"}', "non-finite capacity for link 'a'"),
        ('{"a": NaN}', "non-finite capacity for link 'a'"),
        ('{"a": true}', "non-numeric capacity for link 'a'"),
    ], ids=["invalid-json", "array", "empty", "non-numeric", "infinity",
            "inf-text", "nan", "bool"])
    def test_bad_capacity_file_named_in_error(self, case, tmp_path, capsys,
                                              text, message):
        caps = tmp_path / "caps.json"
        caps.write_text(text + "\n")
        code = main(
            ["solve"] + base_args(case)
            + ["--cost-config", str(case["cost"]),
               "--capacity-constraints", str(caps)]
        )
        assert code == EXIT_VALIDATION
        error = last_json_line(capsys.readouterr())["errors"][0]
        assert error.startswith(f"{caps}: ")
        assert message in error


class TestSweep:
    def test_full_span_sweep(self, case, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            ["sweep"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--method", "pd",
               "--levels", "0:1:5", "--out", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "levels=5 method=pd city_type=III" in stdout
        for name in ("sweep.csv", "sweep.json", "t_vs_re.csv", "ps_vs_re.csv",
                     "voc_vs_re.csv", "rur_vs_re.csv"):
            assert (out / name).exists()
        rows = read_sweep_csv(out / "sweep.csv")
        assert [r["penetration"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        times = [r["t_mue"] for r in rows]
        assert all(b - a <= 1e-6 for a, b in zip(times, times[1:]))

    def test_levels_validation(self, case, capsys):
        code = main(
            ["sweep"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--levels", "0.5"]
        )
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert "at least two" in payload["errors"][0]

        code = main(
            ["sweep"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--levels", "0,2"]
        )
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("levels, message", [
        ("0:1:3.5", "--levels grid count n must be an integer, got '3.5'"),
        ("0:x:3", "--levels takes numbers, got 'x'"),
        ("a", "--levels takes numbers, got 'a'"),
        ("0,0.5,0.5", "levels must be distinct"),
    ])
    def test_levels_errors_say_what_is_wrong(self, case, capsys, levels,
                                             message):
        code = main(
            ["sweep"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--levels", levels]
        )
        assert code == EXIT_VALIDATION
        (error,) = last_json_line(capsys.readouterr())["errors"]
        assert error.startswith(message)

    def test_capacity_constraints_need_path_solver(self, case, tmp_path,
                                                   capsys):
        # the same exit code and message as the solve subcommand
        caps = tmp_path / "caps.json"
        caps.write_text('{"a": 25.0}\n')
        out = tmp_path / "refused"
        code = main(
            ["sweep"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--method", "bfw",
               "--capacity-constraints", str(caps), "--levels", "0,1",
               "--out", str(out)]
        )
        assert code == EXIT_VALIDATION
        payload = last_json_line(capsys.readouterr())
        assert payload["errors"] == [
            "explicit capacity constraints need a path-based solver "
            "('pd' or 'eg')"]
        assert not (out / "sweep.csv").exists()

    def test_unconverged_first_level_fails_without_artifacts(
            self, grid_case, tmp_path, capsys):
        out = tmp_path / "failed"
        code = main(
            ["sweep"] + base_args(grid_case)
            + ["--cost-config", str(grid_case["cost"]), "--method", "fw",
               "--rel-gap", "1e-12", "--max-iters", "3",
               "--levels", "0,1", "--out", str(out)]
        )
        assert code == EXIT_ITERATION_CAP
        payload = last_json_line(capsys.readouterr())
        assert "did not converge" in payload["errors"][0]
        assert not (out / "sweep.csv").exists()

    def test_partial_sweep_still_writes_artifacts(self, case, tmp_path,
                                                  capsys, monkeypatch):
        import mueflow.cli as cli_mod
        from mueflow.analysis import SweepError
        from mueflow.analysis import run_sweep as real_run_sweep

        def interrupted(network, od, config, levels, method="bfw",
                        options=None, **kwargs):
            result = real_run_sweep(network, od, config, levels[:3],
                                    method=method, options=options, **kwargs)
            raise SweepError("level 0.75 did not converge",
                             failed_level=0.75, completed=result.records)

        monkeypatch.setattr(cli_mod, "run_sweep", interrupted)
        out = tmp_path / "partial"
        code = main(
            ["sweep"] + base_args(case)
            + ["--cost-config", str(case["cost"]), "--method", "pd",
               "--levels", "0:1:5", "--out", str(out)]
        )
        assert code == EXIT_ITERATION_CAP
        captured = capsys.readouterr()
        assert (out / "sweep.csv").exists()
        rows = read_sweep_csv(out / "sweep.csv")
        assert [r["penetration"] for r in rows] == [0.0, 0.25, 0.5]
        payload = last_json_line(captured)
        assert "0.75" in payload["errors"][0]
        assert "city_type=-" in captured.out


class TestSubprocess:
    """End-to-end runs of the installed entry point."""

    def test_solve_deterministic_across_repeated_runs(self, case, tmp_path):
        outs = []
        for tag in ("a", "b", "c"):
            out = tmp_path / tag
            proc = subprocess.run(
                [sys.executable, "-m", "mueflow", "solve"] + base_args(case)
                + ["--cost-config", str(case["cost"]), "--method", "pd",
                   "--penetration", "0.3", "--out", str(out)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
            outs.append((out / "solution.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.skipif(
        shutil.which("mueflow") is None,
        reason="console script not on PATH; install the package "
               "(pip install -e .) to run this test",
    )
    def test_console_script_on_path(self, case, tmp_path):
        proc = subprocess.run(
            ["mueflow", "validate"] + base_args(case),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_OK
        assert "2 zones" in proc.stdout
