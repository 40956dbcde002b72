"""CLI contract: exit codes, report schema, file outputs."""

import csv
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselab import cli as cli_module
from sparselab.cli import _json_payload, cli
from sparselab.dyadic import build_standard_lattice
from sparselab.space import build_grid_space
from sparselab.verify import CheckReport, registry_ids


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


class TestSpaceCommand:
    def test_emits_schema_and_descriptor(self, runner):
        result = runner.invoke(cli, ["space", "--n", "8"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["schema"] == "sparselab-report/1"
        assert payload["space"]["kind"] == "grid"
        assert payload["mass_total"] == 8.0
        assert payload["doubling_constant"] == 3.0

    def test_decimal_string_masses_round_trip(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {
            "space": {"kind": "grid",
                      "masses": ["0.1", "0.25", "0.5", "1"]}})
        result = runner.invoke(cli, ["--config", cfg, "space"])
        assert result.exit_code == 0
        first = json.loads(result.output)["space"]
        cfg2 = _write_config(tmp_path, {"space": first}, "round.json")
        again = runner.invoke(cli, ["--config", cfg2, "space"])
        assert json.loads(again.output)["space"] == first
        assert first["masses"][0] == 0.1

    def test_out_flag_writes_atomically(self, runner, tmp_path):
        target = tmp_path / "space.json"
        result = runner.invoke(cli, ["--out", str(target), "space",
                                     "--n", "4"])
        assert result.exit_code == 0
        assert json.loads(target.read_text())["n"] == 4
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".sparselab-")]
        assert leftovers == []


class TestLatticeCommand:
    def test_grid_8_has_15_cubes(self, runner):
        result = runner.invoke(cli, ["lattice", "--n", "8"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["cube_count"] == 15
        assert payload["systems"] == 1
        gens = sorted(c["gen"] for c in payload["lattices"][0]["cubes"])
        assert gens.count(0) == 1

    def test_three_shifts_report_c_adj(self, runner):
        result = runner.invoke(cli, ["lattice", "--n", "16",
                                     "--shifts", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["systems"] == 3
        assert payload["c_adj"] >= 1.0

    def test_csv_table(self, runner, tmp_path):
        table = tmp_path / "cubes.csv"
        result = runner.invoke(cli, ["lattice", "--n", "8",
                                     "--csv", str(table)])
        assert result.exit_code == 0
        rows = _rows(table.read_text())
        assert len(rows) == 15
        assert {"system", "id", "gen", "mass"} <= set(rows[0])

    def test_csv_masses_are_plain_floats(self, runner, tmp_path):
        table = tmp_path / "cubes.csv"
        result = runner.invoke(cli, ["lattice", "--n", "8", "--shifts", "3",
                                     "--csv", str(table)])
        assert result.exit_code == 0
        masses = [row["mass"] for row in _rows(table.read_text())]
        assert len(masses) > 15
        for mass in masses:
            assert repr(float(mass)) == mass and "np." not in mass

    def test_bad_schema_points_at_field(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"space": {"n": "eight"}})
        result = runner.invoke(cli, ["--config", cfg, "lattice"])
        assert result.exit_code == 2
        assert "space.n" in result.output

    def test_unknown_top_level_field_rejected(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"spqce": {"n": 8}})
        result = runner.invoke(cli, ["--config", cfg, "lattice"])
        assert result.exit_code == 2
        assert "spqce" in result.output


class TestConstantsCommand:
    def test_all_ones_constants_are_one(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {
            "space": {"n": 16},
            "exponents": {"p": [2.0, 2.0], "q": 2.0},
            "weights": ["const", "const"]})
        kinds = ["A_p", "A_inf_fujii", "A_pq_star", "A_pq", "W_inf",
                 "H_inf", "W_inf_i", "H_inf_i"]
        args = ["--config", cfg, "constants"]
        for kind in kinds:
            args += ["--kind", kind]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert len(rows) == 12
        for row in rows:
            assert float(row["value"]) == pytest.approx(1.0, abs=1e-10)

    def test_step_weight_exceeds_one(self, runner):
        result = runner.invoke(cli, ["constants", "--n", "16",
                                     "--kind", "A_p",
                                     "--weight", "step"])
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert float(rows[0]["value"]) > 1.0
        assert rows[0]["argmax_cube"] != ""

    def test_unknown_kind_exits_2(self, runner):
        result = runner.invoke(cli, ["constants", "--n", "8",
                                     "--kind", "A_zz",
                                     "--weight", "const"])
        assert result.exit_code == 2
        assert "A_zz" in result.output
        assert "A_pq_star" in result.output

    def test_joint_kind_without_exponents_exits_2(self, runner):
        result = runner.invoke(cli, ["constants", "--n", "8",
                                     "--kind", "A_pq_star",
                                     "--weight", "const"])
        assert result.exit_code == 2
        assert "exponents" in result.output

    def test_zero_weight_exits_2(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"weights": [[0] + [1] * 15]})
        result = runner.invoke(cli, ["--config", cfg, "constants",
                                     "--n", "16", "--kind", "A_p"])
        assert result.exit_code == 2
        assert "weights[0] must be strictly positive" in result.output
        assert "Traceback" not in result.output


@pytest.mark.parametrize("exponents,args", [
    *[(exps, ["verify", cid])
      for exps in ({"p": [2.0], "q": 2.0},
                   {"p": [2.0, 2.0, 2.0], "q": 1.0},
                   {"p": [1.0, 2.0], "q": 2.0})
      for cid in ("bloom_maximal", "bloom_iterated")],
    ({"p": [1.0, 1.0], "q": 0.5},
     ["constants", "--kind", "A_p", "--weight", "const"])])
def test_exponents_out_of_range_exit_2(runner, tmp_path, exponents, args):
    cfg = _write_config(tmp_path, {"exponents": exponents})
    result = runner.invoke(cli, ["--config", cfg, *args, "--n", "8"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert len([line for line in result.output.splitlines()
                if line.startswith("Error:")]) == 1


_THREE_POINTS = {"kind": "explicit", "masses": [1, 1, 1],
                 "metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}


@pytest.mark.parametrize("args", [
    ["lattice"], ["constants", "--kind", "A_p", "--weight", "const"],
    ["sparse"], ["dominate"], ["verify", "holder_eq"]])
def test_explicit_space_exits_2(runner, tmp_path, args):
    """Every command but dominate runs on an explicit space; dominate
    exits 2 with dyadic's reason: shifted systems exist only on grids."""
    cfg = _write_config(tmp_path, {"space": _THREE_POINTS})
    result = runner.invoke(cli, ["--config", cfg, *args])
    assert "Traceback" not in result.output
    if args[0] != "dominate":
        assert result.exit_code == 0, result.output
        return
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines()
            if line.startswith("Error:")] == \
        ["Error: lattice: shifted systems require a grid space"]


class TestSparseCommand:
    def test_explicit_family_of_root_gives_plain_average(self, runner,
                                                         tmp_path):
        root = build_standard_lattice(build_grid_space(8)).generations[0][0]
        cfg = _write_config(tmp_path, {
            "space": {"n": 8},
            "family": {"cube_ids": [root], "delta": 0.5},
            "functions": [[1, 1, 1, 1, 1, 1, 1, 1]]})
        dump = tmp_path / "cubes.csv"
        result = runner.invoke(cli, ["--config", cfg, "sparse",
                                     "--dump-per-cube", str(dump)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["output"] == [1.0] * 8
        rows = _rows(dump.read_text())
        assert len(rows) == 1
        assert float(rows[0]["coefficient"]) == 1.0

    def test_dump_masses_are_plain_floats(self, runner, tmp_path):
        masses = np.random.default_rng(9).uniform(0.5, 2.0, 16)
        cfg = _write_config(tmp_path, {"space": {"masses": masses.tolist()}})
        dump = tmp_path / "cubes.csv"
        result = runner.invoke(cli, ["--config", cfg, "sparse",
                                     "--dump-per-cube", str(dump)])
        assert result.exit_code == 0
        rows = _rows(dump.read_text())
        assert rows
        for row in rows:
            for key in ("mass", "coefficient"):
                assert repr(float(row[key])) == row[key]
                assert "np." not in row[key]

    def test_seeded_family_deterministic(self, runner):
        first = runner.invoke(cli, ["--seed", "5", "sparse", "--n", "16"])
        second = runner.invoke(cli, ["--seed", "5", "sparse", "--n", "16"])
        assert first.output == second.output
        other = runner.invoke(cli, ["--seed", "6", "sparse", "--n", "16"])
        assert other.output != first.output


class TestDominateCommand:
    def test_zero_arguments_give_empty_certificate(self, runner,
                                                   tmp_path):
        zeros = [0.0] * 8
        cfg = _write_config(tmp_path, {
            "space": {"n": 8},
            "pair": {"k": [1, 0]},
            "functions": [zeros, zeros]})
        result = runner.invoke(cli, ["--config", cfg, "dominate"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["certificate"]["families"] == []
        assert payload["certificate"]["constant"] == 0.0
        assert payload["verification"]["pass"] is True

    def test_depth_exceeded_sets_truncated_flag(self, runner):
        result = runner.invoke(cli, ["--seed", "21", "dominate",
                                     "--n", "2", "--k", "3,3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["certificate"]["truncated"] is True
        assert payload["verification"]["pass"] is True

    def test_seed_21_battery_passes(self, runner):
        for k in ("0", "1", "1,0", "2,1"):
            result = runner.invoke(cli, ["--seed", "21", "dominate",
                                         "--n", "16", "--k", k])
            assert result.exit_code == 0, (k, result.output)
            payload = json.loads(result.output)
            assert payload["verification"]["pass"] is True
            assert payload["certificate"]["truncated"] is False

    @pytest.mark.parametrize("key", ["functions", "symbols"])
    def test_non_finite_config_array_exits_2(self, runner, tmp_path, key):
        row = [1.0] * 16
        row[3] = float("nan")
        cfg = _write_config(tmp_path, {key: [row]})
        result = runner.invoke(cli, ["--config", cfg, "dominate",
                                     "--n", "16", "--k", "1"])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("args", [
        ["dominate", "--n", "8", "--eta", "nan"],
        ["dominate", "--n", "8", "--alpha", "inf"],
        ["sparse", "--n", "8", "--eta", "nan"],
    ])
    def test_non_finite_flag_exits_2(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("args,message", [
        (["dominate", "--n", "8", "--eta", "-1"],
         "Error: eta must lie in [0, 1) (m = slot count)"),
        (["sparse", "--n", "8", "--eta", "-3"], "Error: eta must be >= 0"),
        (["dominate", "--n", "8", "--alpha", "0"],
         "Error: alpha must be positive"),
        (["dominate", "--n", "8", "--alpha", "-1"],
         "Error: alpha must be positive"),
    ])
    def test_out_of_range_number_exits_2(self, runner, args, message):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert [line for line in result.output.splitlines()
                if line.startswith("Error:")] == [message]

    def test_four_slots_exit_2(self, runner):
        result = runner.invoke(cli, ["dominate", "--n", "16",
                                     "--k", "1,1,1,1"])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines()
                  if line.startswith("Error:")]
        assert errors == ["Error: pair has 4 slots; dominate supports "
                          "at most 3"]

    def test_audit_writes_per_point_csv(self, runner, tmp_path):
        target = tmp_path / "cert.json"
        result = runner.invoke(cli, ["--seed", "21", "--audit",
                                     "--out", str(target), "dominate",
                                     "--n", "8", "--k", "1,0"])
        assert result.exit_code == 0
        audit = tmp_path / "cert.json.audit.csv"
        rows = _rows(audit.read_text())
        assert len(rows) == 8
        assert {"point", "lhs", "rhs", "ratio"} <= set(rows[0])
        payload = json.loads(target.read_text())
        assert "per_point" in payload["certificate"]


class TestVerifyCommand:
    def test_unknown_check_id_exits_2_listing_valid(self, runner):
        result = runner.invoke(cli, ["verify", "nope"])
        assert result.exit_code == 2
        assert "nope" in result.output
        assert "holder_eq" in result.output
        assert "bloom_iterated" in result.output

    def test_empty_check_list_exits_2(self, runner):
        result = runner.invoke(cli, ["verify"])
        assert result.exit_code == 2
        assert "empty check list" in result.output

    @pytest.mark.parametrize("flag,value", [("--trials", "-5"),
                                            ("--n", "1")])
    def test_out_of_range_flag_exits_2(self, runner, flag, value):
        result = runner.invoke(cli, ["verify", "holder_eq", flag, value])
        assert result.exit_code == 2
        assert "must be >=" in result.output

    def test_non_finite_ratio_report_is_strict_json(self, runner, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr("sparselab.verify.holder_sides",
                            lambda *args: (1.0, 0.0))
        report = tmp_path / "rep.json"
        result = runner.invoke(cli, ["verify", "holder_eq", "--trials", "2",
                                     "--report", str(report)])
        assert result.exit_code == 1
        payload = json.loads(report.read_text(),
                             parse_constant=_reject_constant)
        assert payload["checks"][0]["worst_ratio"] == "Infinity"

    def test_payload_writes_non_finite_floats_as_strings(self):
        text = _json_payload({"x": [math.nan, math.inf, -math.inf, 1.5]})
        assert json.loads(text, parse_constant=_reject_constant) == \
            {"x": ["NaN", "Infinity", "-Infinity", 1.5]}

    def test_passing_checks_write_report(self, runner, tmp_path):
        report = tmp_path / "report.json"
        result = runner.invoke(cli, ["verify", "holder_eq", "m_vs_i",
                                     "--trials", "10",
                                     "--report", str(report)])
        assert result.exit_code == 0
        assert "holder_eq: pass" in result.output
        payload = json.loads(report.read_text())
        assert payload["schema"] == "sparselab-report/1"
        assert payload["passed"] is True
        assert [c["check_id"] for c in payload["checks"]] == \
            ["holder_eq", "m_vs_i"]
        assert "runtime_seconds" not in payload["checks"][0]

    def test_report_bytes_reproducible(self, runner, tmp_path):
        target = tmp_path / "rep.json"
        args = ["--seed", "1", "verify", "dyadicsum_equiv",
                "--report", str(target)]
        assert runner.invoke(cli, args).exit_code == 0
        first = target.read_bytes()
        assert runner.invoke(cli, args).exit_code == 0
        assert target.read_bytes() == first

    def test_seed_flag_changes_monitor_values(self, runner):
        one = runner.invoke(cli, ["--seed", "1", "verify",
                                  "dyadicsum_equiv"])
        two = runner.invoke(cli, ["--seed", "2", "verify",
                                  "dyadicsum_equiv"])
        assert one.exit_code == 0 and two.exit_code == 0
        assert one.output != two.output

    def test_config_supplies_check_list(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"checks": ["holder_eq"],
                                       "trials": 5})
        result = runner.invoke(cli, ["--config", cfg, "verify"])
        assert result.exit_code == 0
        assert "trials=5" in result.output

    def test_failing_check_exits_1(self, runner, monkeypatch):
        def fake_run(spec):
            return CheckReport(spec.check_id, "exact", 1,
                               failures=[{"trial": 0}])
        monkeypatch.setattr("sparselab.cli.run_check", fake_run)
        result = runner.invoke(cli, ["verify", "holder_eq"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_audit_adds_runtime(self, runner, tmp_path):
        report = tmp_path / "rep.json"
        result = runner.invoke(cli, ["--audit", "verify", "holder_eq",
                                     "--trials", "5",
                                     "--report", str(report)])
        assert result.exit_code == 0
        payload = json.loads(report.read_text())
        assert payload["checks"][0]["runtime_seconds"] >= 0.0


class TestCommandSurface:
    def test_help_lists_exactly_the_subcommands(self, runner):
        result = runner.invoke(cli, ["--help"])
        assert result.exit_code == 0
        section = result.output.split("Commands:\n")[1]
        # one "  name  summary" line per command; wrapped summaries
        # continue on deeper-indented lines
        names = [line.split()[0] for line in section.splitlines()
                 if line.startswith("  ") and not line.startswith("   ")]
        assert names == ["constants", "dominate", "lattice", "space",
                         "sparse", "verify"]

    def test_bench_is_not_a_command(self, runner):
        result = runner.invoke(cli, ["bench"])
        assert result.exit_code == 2
        assert "No such command" in result.output

    def test_bench_config_field_rejected(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"bench": {"ns": [64]}})
        result = runner.invoke(cli, ["--config", cfg, "space", "--n", "8"])
        assert result.exit_code == 2
        assert "bench" in result.output

    def test_every_exported_name_resolves(self):
        import sparselab

        missing = [name for name in sparselab.__all__
                   if not hasattr(sparselab, name)]
        assert missing == []


@pytest.mark.parametrize("config,args,code", [
    (None, ["--seed", "-1", "dominate", "--n", "16", "--k", "1"], 2),
    (None, ["--seed", "-1", "sparse", "--n", "16"], 2),
    ({"seed": -1}, ["sparse", "--n", "16"], 2),
    ({"family": {"cube_ids": [-1]}}, ["sparse", "--n", "16"], 2),
    (None, ["constants", "--n", "16", "--kind", "A_inf_fujii",
            "--weight", "power:-400"], 2),
    *[({"exponents": {"p": [2.0], "q": 2.0}},
       ["constants", "--n", "16", "--kind", kind, "--weight", "power:nan"],
       2) for kind in ("A_pq_star", "A_pq", "W_inf", "H_inf")],
    ({"functions": ["power:-400"]}, ["sparse", "--n", "16"], 2),
    ({"symbols": ["power:nan"]}, ["dominate", "--n", "16", "--k", "1"], 2),
    # a construction that cannot finish is a failed certificate
    (None, ["dominate", "--n", "16", "--k", "1", "--alpha", "1e-300"], 1),
    # a family's sparseness must lie in (0, 1]
    *[({"family": {"cube_ids": [0], "delta": delta}},
       ["sparse", "--n", "16"], 2) for delta in (-1, 0, math.nan, 1.5)],
    # p_i = inf is legal; an infinite q, gamma, r or p0 is not
    *[({"exponents": {"p": [2.0, 2.0], "q": 2.0, key: math.inf}},
       ["verify", "endpoint_weak", "--trials", "1"], 2)
      for key in ("q", "gamma", "r", "p0")],
    # the dual weight w^(1 - p') needs p > 1
    ({"exponents": {"p": [1.0, 2.0], "q": 1.0}},
     ["verify", "thm_astar_chain", "--trials", "1"], 2),
    # a declared a0 must be a finite number >= 1
    *[({"space": {"kind": "explicit", "masses": [1, 1, 1],
                  "metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "a0": a0}},
       ["space"], 2) for a0 in (math.nan, math.inf)],
    ({"family": {"cube_ids": [1, 1]}}, ["sparse", "--n", "8"], 2),
    # every setting is checked by one reader, whatever its source
    ({"seed": True}, ["sparse", "--n", "16"], 2),
    ({"lattice": {"shifts": 1.5}}, ["lattice", "--n", "16"], 2),
    ({"alpha": "1"}, ["dominate", "--n", "16", "--k", "1"], 2),
    ({"alpha": math.nan}, ["dominate", "--n", "16", "--k", "1"], 2),
    ({"eta": math.nan}, ["dominate", "--n", "16", "--k", "1"], 2),
    ({"eta": math.nan}, ["sparse", "--n", "16"], 2),
    # every array setting is checked by one reader too
    ({"exponents": {"p": [math.nan, 2.0], "q": 2.0}},
     ["verify", "holder_eq"], 2),
    # the config is read, never rewritten: --n must match space.masses
    *[({"space": {"masses": [1] * 8}}, [command, "--n", "4", *rest], 2)
      for command, rest in (("space", []), ("sparse", []),
                            ("verify", ["holder_eq"]))],
    ({"kinds": [3]}, ["constants", "--n", "16", "--weight", "step"], 2),
    ({"checks": "holder_eq"}, ["verify"], 2),
    ({"pair": {"tau_ell": ["0"]}}, ["dominate", "--n", "16"], 2),
    ({"family": {"cube_ids": None}}, ["sparse", "--n", "16"], 2),
    ({"space": {"masses": [True]}}, ["space"], 2),
    # dyadic decides which lattices a space can have: a net lattice that
    # does not finish, or shifted systems off a grid, exit 2
    *[({"space": {"kind": "explicit", "masses": [1, 1],
                  "metric": [[0, 1e-300], [1e-300, 0]]}}, args, 2)
      for args in (["lattice"], ["constants", "--kind", "A_p", "--weight",
                                 "const"], ["sparse"], ["verify", "all"])],
    ({"space": _THREE_POINTS}, ["lattice", "--shifts", "3"], 2),
])
def test_bad_input_gives_one_error_line(runner, tmp_path, config, args,
                                        code):
    if config is not None:
        args = ["--config", _write_config(tmp_path, config), *args]
    result = runner.invoke(cli, args)
    assert result.exit_code == code
    assert "Traceback" not in result.output
    assert len([line for line in result.output.splitlines()
                if line.startswith("Error:")]) == 1


# a field that cannot be null alone keeps the rest of its config
_NULL_FIELD_BASE = {"family.delta": {"family": {"cube_ids": [0]}}}


@pytest.mark.parametrize("section,args", [
    ("space", ["space", "--n", "16"]),
    ("pair", ["dominate", "--n", "16"]),
    ("lattice", ["lattice", "--n", "16"]),
    ("exponents", ["sparse", "--n", "16"]),
    ("family", ["sparse", "--n", "16"]),
    ("pair.k", ["dominate", "--n", "16"]),
    ("pair.tau_ell", ["dominate", "--n", "16"]),
    ("space.kind", ["space", "--n", "16"]),
    ("space.n", ["space"]),
    ("family.delta", ["sparse", "--n", "16"]),
    ("functions", ["sparse", "--n", "16"]),
    ("symbols", ["dominate", "--n", "16"]),
    ("seed", ["sparse", "--n", "16"]),
    ("out", ["space", "--n", "8"]),
    ("eta", ["sparse", "--n", "16"]),
    ("alpha", ["dominate", "--n", "16"]),
    ("lattice.shifts", ["dominate", "--n", "16"]),
    ("trials", ["verify", "holder_eq"]),
])
def test_null_section_reads_as_absent(runner, tmp_path, section, args):
    """A section or field set to null prints what omitting it prints."""
    base = _NULL_FIELD_BASE.get(section, {})
    nulled = json.loads(json.dumps(base))  # a deep copy
    *parents, field = section.split(".")
    node = nulled
    for key in parents:
        node = node.setdefault(key, {})
    node[field] = None
    result = runner.invoke(
        cli, ["--config", _write_config(tmp_path, nulled), *args])
    assert result.exit_code == 0, result.output
    expected = runner.invoke(
        cli, ["--config", _write_config(tmp_path, base, "base.json"), *args])
    assert expected.exit_code == 0, expected.output
    assert result.output == expected.output


def test_repeated_cube_id_names_the_id(runner, tmp_path):
    cfg = _write_config(tmp_path, {"family": {"cube_ids": [1, 1]}})
    result = runner.invoke(cli, ["--config", cfg, "sparse", "--n", "8"])
    assert result.exit_code == 2
    assert "Error: family: cube 1 is listed twice" in result.output


@pytest.mark.parametrize("config,config_args,flag_args", [
    ({"lattice": {"shifts": 3}}, ["dominate", "--n", "16"],
     ["dominate", "--n", "16", "--shifts", "3"]),
    ({"eta": 0.5}, ["sparse", "--n", "8"], ["sparse", "--n", "8",
                                            "--eta", "0.5"]),
    ({"space": {"n": 64}}, ["verify", "dyadicsum_equiv", "--trials", "2"],
     ["verify", "dyadicsum_equiv", "--trials", "2", "--n", "64"]),
])
def test_config_field_reads_like_its_flag(runner, tmp_path, config,
                                          config_args, flag_args):
    cfg = _write_config(tmp_path, config)
    from_config = runner.invoke(cli, ["--config", cfg, *config_args])
    from_flag = runner.invoke(cli, flag_args)
    assert from_config.exit_code == 0, from_config.output
    assert from_config.stdout_bytes == from_flag.stdout_bytes
    # the setting moves the output, so neither source is ignored
    assert from_flag.stdout_bytes != \
        runner.invoke(cli, config_args).stdout_bytes


@pytest.mark.parametrize("config,args,message", [
    (None, ["lattice", "--n", "8", "--shifts", "0"],
     "Error: shifts must be >= 1"),
    ({"lattice": {"shifts": 0}}, ["lattice", "--n", "8"],
     "Error: lattice.shifts must be >= 1"),
    ({"alpha": 0}, ["dominate", "--n", "8"],
     "Error: config.alpha must be positive"),
    ({"eta": -1}, ["sparse", "--n", "8"], "Error: config.eta must be >= 0"),
    ({"space": {"n": 1}}, ["verify", "holder_eq"],
     "Error: space.n must be >= 2"),
    ({"exponents": {"p": [math.nan, 2.0], "q": 2.0}}, ["verify", "holder_eq"],
     "Error: exponents.p must be an array of numbers other than NaN, "
     "got nan"),
    # a lattice the space cannot have is named as such, also by verify,
    # whose checks build it
    *[({"space": {"kind": "explicit", "masses": [1, 1],
                  "metric": [[0, 1e-300], [1e-300, 0]]}}, args,
       "Error: lattice: net construction exceeded 512 generations "
       "(stalled at generation 512)")
      for args in (["sparse"], ["verify", "all"])],
    # a given n is at least 1; empty masses fail in the library
    *[(None, [command, "--n", n], "Error: n must be >= 1")
      for command in ("space", "lattice") for n in ("-4", "0")],
    *[({"space": {"n": n}}, ["space"], "Error: space.n must be >= 1")
      for n in (-4, 0)],
    ({"space": {"masses": [], "n": -4}}, ["lattice"],
     "Error: space.n must be >= 1"),
    ({"space": {"masses": []}}, ["space"],
     "Error: space: grid size must be a power of two"),
    ({"space": {"kind": "explicit", "masses": [], "metric": []}},
     ["lattice"], "Error: space: space must contain at least one point"),
    ({"space": {"masses": []}}, ["verify", "holder_eq"],
     "Error: space.n must be >= 2"),
])
def test_error_names_flag_bare_and_field_dotted(runner, tmp_path, config,
                                                args, message):
    if config is not None:
        args = ["--config", _write_config(tmp_path, config), *args]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines()
            if line.startswith("Error:")] == [message]


@pytest.mark.parametrize("target", ["missing/out.txt", "a_directory"])
@pytest.mark.parametrize("args", [
    ["--out", "{}", "space", "--n", "4"],
    ["verify", "holder_eq", "--trials", "1", "--report", "{}"],
    ["lattice", "--n", "4", "--csv", "{}"],
    ["sparse", "--n", "4", "--dump-per-cube", "{}"],
    ["dominate", "--n", "4", "--audit-csv", "{}"],
    # every output path is checked before the work starts, so a good
    # --out is not written when another path is bad
    ["--out", "{ok}", "verify", "all", "--report", "{}"],
    ["--out", "{ok}", "lattice", "--n", "4", "--csv", "{}"],
    ["--out", "{ok}", "sparse", "--n", "4", "--dump-per-cube", "{}"],
    ["--out", "{ok}", "--audit", "dominate", "--n", "4", "--audit-csv",
     "{}"],
    ["--out", "{}", "constants", "--n", "4", "--kind", "A_p", "--weight",
     "const"],
])
def test_unwritable_output_exits_2(runner, tmp_path, monkeypatch, target,
                                   args):
    (tmp_path / "a_directory").mkdir()
    path = str(tmp_path / target)
    ok = tmp_path / "report.json"
    checks = []
    monkeypatch.setattr(cli_module, "run_check", checks.append)
    result = runner.invoke(cli, [a.replace("{}", path)
                                 .replace("{ok}", str(ok)) for a in args])
    assert result.exit_code == 2
    assert checks == [] and not ok.exists()
    assert "Traceback" not in result.output
    assert [line for line in result.output.splitlines()
            if line.startswith("Error:")] == \
        [f"Error: cannot write {path}: "
         + ("Is a directory" if target == "a_directory"
            else "No such file or directory")]
    assert list(tmp_path.rglob(".sparselab-*")) == []


def test_config_that_is_not_utf8_exits_2(runner, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"seed": "\xff"}')
    result = runner.invoke(cli, ["--config", str(cfg), "space", "--n", "4"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error:")]
    assert len(errors) == 1
    assert errors[0].startswith("Error: config: invalid JSON")


def test_top_level_n_is_unknown(runner, tmp_path):
    cfg = _write_config(tmp_path, {"n": 64})
    result = runner.invoke(cli, ["--config", cfg, "verify", "holder_eq"])
    assert result.exit_code == 2
    assert "unknown field 'n'" in result.output


@pytest.mark.parametrize("masses", [[1, 2] * 8, [1]])
def test_verify_rejects_space_it_cannot_build(runner, tmp_path, masses):
    """Masses other than all ones run; a check compares points, so one
    point exits 2."""
    cfg = _write_config(tmp_path, {"space": {"masses": masses}})
    result = runner.invoke(cli, ["--config", cfg, "verify", "holder_eq"])
    assert "Traceback" not in result.output
    if len(masses) > 1:
        assert result.exit_code == 0, result.output
        assert result.output.startswith("holder_eq: pass")
        return
    assert result.exit_code == 2
    assert "Error: space.n must be >= 2" in result.output


def _plane_space(n, seed):
    """n seeded points of the unit square, Euclidean, with masses drawn
    from [0.5, 2)."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(size=(n, 2))
    metric = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))
    return {"kind": "explicit", "metric": metric.tolist(),
            "masses": rng.uniform(0.5, 2.0, n).tolist()}


@pytest.mark.parametrize("space", [
    {"masses": np.random.default_rng(0).uniform(0.5, 2.0, 16).tolist()},
    _plane_space(16, 0)], ids=["weighted-grid", "explicit"])
def test_verify_all_runs_on_the_configured_space(runner, tmp_path, space):
    cfg = _write_config(tmp_path, {"space": space})
    report = tmp_path / "report.json"
    result = runner.invoke(cli, ["--config", cfg, "verify", "all",
                                 "--trials", "1", "--report", str(report)])
    assert result.exit_code == 0, result.output
    payload = json.loads(report.read_text())
    assert payload["n"] == 16
    assert [c["check_id"] for c in payload["checks"]] == registry_ids()
    assert all(c["passed"] for c in payload["checks"])


def test_output_file_mode_follows_umask(runner, tmp_path):
    out, table = tmp_path / "lattice.json", tmp_path / "cubes.csv"
    old = os.umask(0o022)
    try:
        result = runner.invoke(cli, ["--out", str(out), "lattice", "--n",
                                     "4", "--csv", str(table)])
    finally:
        os.umask(old)
    assert result.exit_code == 0, result.output
    assert [stat.S_IMODE(p.stat().st_mode) for p in (out, table)] == \
        [0o644, 0o644]


def test_implied_audit_path_is_checked_first(runner, tmp_path):
    out = tmp_path / "cert.json"
    (tmp_path / "cert.json.audit.csv").mkdir()
    result = runner.invoke(cli, ["--out", str(out), "--audit", "dominate",
                                 "--n", "4"])
    assert result.exit_code == 2
    assert f"Error: cannot write {out}.audit.csv: Is a directory" in \
        result.output
    assert not out.exists()


def _readme_configs():
    """Every JSON config block of the README."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.DOTALL)
    assert len(blocks) >= 2
    return [json.loads(block) for block in blocks]


@pytest.mark.parametrize("args", [
    ["verify", "--trials", "1"], ["constants", "--kind", "A_pq_star"],
    ["lattice"], ["constants", "--kind", "A_p"], ["sparse"]])
def test_readme_config_example_runs(runner, tmp_path, args):
    for config in _readme_configs():
        cfg = _write_config(tmp_path, config)
        result = runner.invoke(cli, ["--config", cfg, *args])
        assert result.exit_code == 0, (config, result.output)


def test_dominate_bytes_do_not_depend_on_blas_threads():
    # the README's Numerics promise: one BLAS thread or two, the same
    # report; each run is a fresh process, as the thread count is read
    # when numpy loads
    src = str(pathlib.Path(__file__).parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        run = subprocess.run(
            [sys.executable, "-c", "from sparselab.cli import main; main()",
             "dominate", "--n", "256", "--k", "1", "--shifts", "3"],
            env=env, capture_output=True, timeout=300, check=True)
        outputs.append(run.stdout)
    assert json.loads(outputs[0])["verification"]["pass"] is True
    assert outputs[0] == outputs[1]


def _stdlib_json(payload):
    """The reference for _json_payload: the stdlib's indent=2 text, with
    each NaN or infinite float replaced by its name as a string."""
    def strings(value):
        if isinstance(value, dict):
            return {k: strings(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [strings(v) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            return json.dumps(value)
        return value
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        return json.dumps(strings(payload), sort_keys=True, indent=2,
                          allow_nan=False)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["\x00\n\t\"\\", "\u00e9\u2028", "\U0001f600"]))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(tuple),
    st.dictionaries(st.text(), inner, max_size=6),
    st.dictionaries(st.integers(), inner, max_size=6)), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
@example({})
@example(True)
@example(None)
@example(np.float64(math.inf))
@example({"a": [[], {}, ()], "b": {"c": []}})
@example({10: 0, 2: 0})
@example({10: 0, 2: [1]})
@example({"\x7f\u00e9": {1.5: [True], -2.0: 0.1}})
@example({True: [1], False: 0})
@example({None: {}})
@example({"a": [1, {"b": [math.nan, (math.inf, {"c": -math.inf})]}]})
def test_json_payload_matches_stdlib(payload):
    assert _json_payload(payload) == _stdlib_json(payload)


@pytest.mark.parametrize("payload", [
    np.int64(3), [1, np.int64(3)], {"a": 1, "b": np.int64(3)},
    {"a": [1.5, math.nan], "b": {"c": [np.int64(3)]}}])
def test_json_payload_raises_stdlib_type_error(payload):
    with pytest.raises(TypeError) as want:
        _stdlib_json(payload)
    with pytest.raises(TypeError) as got:
        _json_payload(payload)
    assert str(got.value) == str(want.value)


def _golden_dump(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("args", [
    ["space", "--n", "2048"], ["lattice", "--n", "256", "--shifts", "3"],
    ["sparse", "--n", "64"],
    ["--seed", "1", "dominate", "--n", "64", "--k", "1,1", "--shifts", "3"]])
def test_report_bytes_are_stdlib_json(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    assert result.output == _golden_dump(result.output)


def test_non_finite_report_bytes_are_stdlib_json(runner, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr("sparselab.verify.holder_sides",
                        lambda *args: (1.0, 0.0))
    report = tmp_path / "rep.json"
    runner.invoke(cli, ["verify", "holder_eq", "--trials", "2",
                        "--report", str(report)])
    text = report.read_text()
    assert '"Infinity"' in text
    assert text == _golden_dump(text)
