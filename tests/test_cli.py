import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from singlering import cli
from singlering.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    config_hash,
    fmt,
    main,
    validate_config,
)

TWO_POINT = {"atoms": [1.0, 2.0], "weights": [0.5, 0.5]}


def write_cfg(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        for x in (1 / 3, math.sqrt(2.5), 1e-17, -math.pi * 1e8):
            assert float(fmt(x)) == x

    def test_hash_is_canonical(self):
        a = {"b": 1, "a": [1.5, 2]}
        b = {"a": [1.5, 2], "b": 1}
        assert config_hash(a) == config_hash(b)


class TestValidate:
    def test_valid_config_empty_report(self, tmp_path):
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT})
        assert validate_config(p, "radii") == []
        assert main(["validate", "--config", p]) == EXIT_OK

    def test_missing_weights_names_path(self, tmp_path):
        p = write_cfg(tmp_path / "c.json", {"measure": {"atoms": [1.0, 2.0]}})
        problems = validate_config(p, "radii")
        assert any("measure.weights" in s for s in problems)
        assert main(["validate", "--config", p, "--for-command", "radii"]) == EXIT_CONFIG

    def test_weights_not_summing_names_measure(self, tmp_path):
        p = write_cfg(
            tmp_path / "c.json", {"measure": {"atoms": [1.0, 2.0], "weights": [0.7, 0.6]}}
        )
        problems = validate_config(p, "radii")
        assert any("measure" in s and "sum" in s for s in problems)

    def test_empty_annulus_names_tau(self, tmp_path):
        p = write_cfg(
            tmp_path / "c.json",
            {
                "measure": TWO_POINT,
                "ensemble": {"N_values": [16], "seed": 1},
                "grid": {"tau": 0.5, "trials": 1},
            },
        )
        problems = validate_config(p, "local-law")
        assert any("tau" in s and "annulus" in s for s in problems)

    def test_unparseable_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert validate_config(str(p)) and main(["validate", "--config", str(p)]) == EXIT_CONFIG


MAIN_GAP = {
    "measure": TWO_POINT,
    "ensemble": {"N": 24, "seed": 1},
    "grid": {"trials": 1},
    "params": {"w0": [1.4, 0.0], "alphas": [0.25], "support_radii": [0.5]},
}
BLOCK = {
    "measure": {"atoms": [1.0], "weights": [1.0]},
    "measure2": {"atoms": [1.0], "weights": [1.0]},
    "ensemble": {"N_values": [16], "seed": 1},
    "grid": {"eta_max": 1.0, "trials": 1},
}
GREEN_SUB = dict(BLOCK, params={"z_values": [[0.0, 0.25]], "bulk_window": [-0.5, 0.5]})


def with_params(cfg, **params):
    return dict(cfg, params=dict(cfg.get("params", {}), **params))


# (command, config, a fragment of the message): the command's parser, which
# validate and the run share, rejects each config
BAD_CONFIGS = [
    ("ring-density", {"measure": TWO_POINT, "params": {"s_min": 1.5, "s_max": 1.4}},
     "s_min <= s_max"),
    ("main-gap", with_params(MAIN_GAP, w0=[3.0, 0.0]), "params.w0: |w0| = 3"),
    ("local-law",
     {"measure": {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
      "ensemble": {"N_values": [16], "seed": 1},
      "grid": {"w_abs": 1.0, "trials": 1}},
     "measure: radii expects"),
    ("main-gap", with_params(MAIN_GAP, w0=[1.4]), "params.w0: expected a pair"),
    ("main-gap", with_params(MAIN_GAP, alphas=[0.0, 0.25]), "params.support_radii: 1 radii"),
    ("main-gap", with_params(MAIN_GAP, alphas=[0.7]), "params.alphas: each alpha"),
    ("green-sub", with_params(GREEN_SUB, z_values=[[0.1]]), "params.z_values[0]"),
    ("green-sub", with_params(GREEN_SUB, bulk_window=[0.5]), "params.bulk_window"),
    ("block-law", with_params(BLOCK, E_interval=[0.1]), "params.E_interval"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.0, "z_grid": [[0.0, 1.0], [0.1]]}},
     "params.z_grid[1]"),
    ("certificate", {"measure": TWO_POINT, "params": {"r": 5.0}},
     "params.r: r = 5.0 violates the bulk hypothesis"),
    ("green-sub", with_params(GREEN_SUB, z_values=[[0.0, 0.25], [0.0, -0.25]]),
     "params.z_values[1]: need Im z > 0;"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.0, "z_grid": [[0.0, 1.0], [0.5, 0.0]]}},
     "params.z_grid[1]: need Im z > 0, or z = i eta with eta >= 0"),
    ("freeconv", {"measure": TWO_POINT, "measure2": TWO_POINT, "params": {"z_grid": [[0.0, 0.0]]}},
     "params.z_grid[0]: need Im z > 0;"),
    ("block-law", with_params(BLOCK, E_interval=[0.2, 0.1]), "params.E_interval: empty"),
]


class TestBadConfigs:
    @pytest.mark.parametrize("command,cfg,fragment", BAD_CONFIGS)
    def test_validate_and_run_report_the_same_line(self, tmp_path, capsys, command, cfg, fragment):
        p = write_cfg(tmp_path / "c.json", cfg)
        capsys.readouterr()
        assert main(["validate", "--config", p, "--for-command", command]) == EXIT_CONFIG
        validated = capsys.readouterr().err
        out = tmp_path / "run"
        assert main([command, "--config", p, "--out", str(out)]) == EXIT_CONFIG
        ran = capsys.readouterr().err
        assert validated == ran
        assert ran.startswith("invalid config: ") and ran.count("\n") == 1
        assert fragment in ran
        assert not out.exists()  # parsing fails before the output directory is made


class TestRadiiCommand:
    def test_prints_and_writes(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT})
        out = tmp_path / "run"
        assert main(["radii", "--config", p, "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out.split()
        assert float(printed[0]) == pytest.approx(math.sqrt(8 / 5), abs=1e-12)
        assert float(printed[1]) == pytest.approx(math.sqrt(2.5), abs=1e-12)
        rows = read_csv(out / "radii.csv")
        assert rows[0] == ["r_minus", "r_plus", "s_plus", "second_moment"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "radii"
        assert manifest["outputs"] == ["radii.csv"]
        assert manifest["config_hash"] == config_hash(manifest["config"])

    def test_refuses_nonempty_out_dir(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT})
        out = tmp_path / "run"
        assert main(["radii", "--config", p, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["radii", "--config", p, "--out", str(out)]) == EXIT_CONFIG
        assert (
            main(["radii", "--config", p, "--out", str(out), "--overwrite"]) == EXIT_OK
        )


class TestCertificateCommand:
    def test_emits_expected_scalars(self, tmp_path):
        p = write_cfg(
            tmp_path / "c.json",
            {"measure": {"kind": "two_point", "a": 1.0, "b": 2.0, "p": 0.5},
             "params": {"r": 1.4, "grid": 32}},
        )
        out = tmp_path / "run"
        assert main(["certificate", "--config", p, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "certificate.json").read_text())
        assert rep["s_minus"] == pytest.approx(math.sqrt(2.5), abs=1e-10)
        assert rep["b_minus"] == pytest.approx(0.36 / 1.96, abs=1e-10)
        assert rep["upper_ok"] and rep["lower_ok"] and rep["zero_bound_ok"]

    def test_radius_outside_ring_is_config_error(self, tmp_path):
        p = write_cfg(
            tmp_path / "c.json",
            {"measure": TWO_POINT, "params": {"r": 5.0}},
        )
        assert main(["certificate", "--config", p, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


class TestFreeconvCommand:
    def test_delta_csv(self, tmp_path):
        p = write_cfg(
            tmp_path / "c.json",
            {"measure": {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
             "params": {"r": 1.0, "z_grid": [[0.0, 1.0]]}},
        )
        out = tmp_path / "run"
        assert main(["freeconv", "--config", p, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "freeconv.csv")
        assert rows[0][:2] == ["z_re", "z_im"]
        got = float(rows[1][5])  # omega2_im at z = i
        assert got == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-10)

    def test_delta_route_solves_at_z_zero(self, tmp_path):
        # the axis z = i eta includes eta = 0 on the point-mass route
        p = write_cfg(
            tmp_path / "c.json",
            {"measure": TWO_POINT, "params": {"r": 1.4, "z_grid": [[0.0, 0.0]]}},
        )
        assert main(["validate", "--config", p, "--for-command", "freeconv"]) == EXIT_OK
        out = tmp_path / "run"
        assert main(["freeconv", "--config", p, "--out", str(out)]) == EXIT_OK
        assert len(read_csv(out / "freeconv.csv")) == 2


class TestRingDensityCommand:
    def test_csv_columns(self, tmp_path):
        p = write_cfg(
            tmp_path / "c.json",
            {"measure": TWO_POINT,
             "params": {"s_min": 1.38, "s_max": 1.42, "n_radii": 3}},
        )
        out = tmp_path / "run"
        assert main(["ring-density", "--config", p, "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "ring_density.csv")
        assert rows[0] == ["s", "L", "dL", "d2L", "rho"]
        assert len(rows) == 4
        assert float(rows[2][4]) > 0.1  # density in the bulk


class TestLocalLawRuns:
    CFG = {
        "measure": TWO_POINT,
        "ensemble": {"N_values": [16, 24, 32], "symmetry": "unitary", "seed": 77},
        "grid": {"eta_min": 0.2, "eta_max": 1.0, "w_abs": 1.4, "trials": 2},
    }

    def test_reproducible_bytes_and_report(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.json", self.CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["local-law", "--config", p, "--out", str(a), "--threads", "1"]) == EXIT_OK
        assert main(["local-law", "--config", p, "--out", str(b), "--threads", "3"]) == EXIT_OK
        assert (a / "locallaw.csv").read_bytes() == (b / "locallaw.csv").read_bytes()
        assert (a / "locallaw_split.csv").read_bytes() == (b / "locallaw_split.csv").read_bytes()

        # manifest echo reproduces the run byte for byte
        echo = json.loads((a / "manifest.json").read_text())["config"]
        p2 = write_cfg(tmp_path / "echo.json", echo)
        c = tmp_path / "c"
        assert main(["local-law", "--config", p2, "--out", str(c)]) == EXIT_OK
        assert (a / "locallaw.csv").read_bytes() == (c / "locallaw.csv").read_bytes()

        # report over one run dir: quantiles only (single... three sizes here)
        rep_dir = tmp_path / "rep"
        assert main(["report", str(a), "--out", str(rep_dir)]) == EXIT_OK
        rows = read_csv(rep_dir / "summary.csv")
        assert rows[0] == ["N", "count", "max_dev", "q95_dev"]
        assert [r[0] for r in rows[1:4]] == ["16", "24", "32"]
        assert rows[4][0] == "slope"

    def test_seed_override_changes_hash(self, tmp_path):
        p = write_cfg(tmp_path / "c.json", self.CFG)
        a = tmp_path / "s1"
        assert main(
            ["local-law", "--config", p, "--out", str(a), "--seed", "123"]
        ) == EXIT_OK
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["seed"] == 123
        assert manifest["config"]["ensemble"]["seed"] == 123

    def test_seed_flag_supplies_a_missing_config_seed(self, tmp_path):
        cfg = json.loads(json.dumps(self.CFG))
        del cfg["ensemble"]["seed"]
        cfg["ensemble"]["N_values"] = [16]
        p = write_cfg(tmp_path / "c.json", cfg)
        out = tmp_path / "run"
        assert main(["local-law", "--config", p, "--out", str(out), "--seed", "4"]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["seed"] == 4


class TestMainGapCommand:
    CFG = {
        "measure": TWO_POINT,
        "ensemble": {"N": 48, "symmetry": "unitary", "seed": 41},
        "grid": {"trials": 2},
        "params": {"w0": [1.4, 0.0], "alphas": [0, 0.25], "support_radii": [0.1, 0.5]},
    }

    def test_gap_csv_rows_and_thread_invariance(self, tmp_path):
        p = write_cfg(tmp_path / "c.json", self.CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["main-gap", "--config", p, "--out", str(a), "--threads", "1"]) == EXIT_OK
        assert main(["main-gap", "--config", p, "--out", str(b), "--threads", "2"]) == EXIT_OK
        assert (a / "gap.csv").read_bytes() == (b / "gap.csv").read_bytes()
        rows = read_csv(a / "gap.csv")
        assert rows[0] == ["N", "trial", "alpha", "w0_re", "w0_im", "lhs", "rhs", "gap_norm"]
        assert len(rows) == 5
        for r in rows[1:]:
            assert all(math.isfinite(float(x)) for x in r[5:8])
        rhs_per_alpha = {}
        for r in rows[1:]:
            rhs_per_alpha.setdefault(float(r[2]), set()).add(r[6])
        assert sorted(rhs_per_alpha) == [0.0, 0.25]
        assert all(len(v) == 1 for v in rhs_per_alpha.values())

    def test_retired_grid_key_is_ignored(self, tmp_path):
        cfg = json.loads(json.dumps(self.CFG))
        cfg["params"]["grid_n"] = 64
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["main-gap", "--config", p, "--out", str(tmp_path / "run")]) == EXIT_OK


class TestBlasThreads:
    def test_csv_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # numpy's OpenBLAS picks its thread count from the environment; the
        # scans pin it to one thread, so the bytes match those of a pinned run
        configs = {
            "local-law": {
                "measure": TWO_POINT,
                "ensemble": {"N_values": [128, 256], "symmetry": "unitary", "seed": 3},
                "grid": {"eta_max": 1.0, "w_abs": 1.4, "trials": 4},
            },
            "main-gap": {
                "measure": TWO_POINT,
                "ensemble": {"N": 256, "symmetry": "unitary", "seed": 3},
                "grid": {"trials": 2},
                "params": {"w0": [1.4, 0.0], "alphas": [0.25], "support_radii": [0.5]},
            },
        }
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        unset = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
        outputs = {}
        for label, env in (("pinned", dict(unset, OPENBLAS_NUM_THREADS="1")), ("unset", unset)):
            for cmd, cfg in configs.items():
                out = tmp_path / label / cmd
                proc = subprocess.run(
                    [sys.executable, "-m", "singlering.cli", cmd,
                     "--config", write_cfg(tmp_path / f"{cmd}.json", cfg), "--out", str(out)],
                    env=dict(env, PYTHONPATH=path), capture_output=True, text=True,
                )
                assert proc.returncode == EXIT_OK, proc.stderr
                for name in sorted(os.listdir(out)):
                    if name.endswith(".csv"):
                        outputs.setdefault((cmd, name), []).append((out / name).read_bytes())
        assert sorted(outputs) == [
            ("local-law", "locallaw.csv"), ("local-law", "locallaw_split.csv"),
            ("main-gap", "gap.csv"),
        ]
        for key, (pinned, unpinned) in outputs.items():
            assert pinned == unpinned, key


class TestReportCommand:
    def test_single_size_run_omits_slope(self, tmp_path):
        cfg = {
            "measure": TWO_POINT,
            "ensemble": {"N_values": [16], "seed": 5},
            "grid": {"eta_min": 0.2, "eta_max": 1.0, "w_abs": 1.4, "trials": 2},
        }
        p = write_cfg(tmp_path / "c.json", cfg)
        run = tmp_path / "run"
        assert main(["local-law", "--config", p, "--out", str(run)]) == EXIT_OK
        rep = tmp_path / "rep"
        assert main(["report", str(run), "--out", str(rep)]) == EXIT_OK
        rows = read_csv(rep / "summary.csv")
        assert len(rows) == 2  # header + one N row, no slope rows

    def test_merges_three_single_size_runs_into_slope(self, tmp_path, capsys):
        dirs = []
        for n in (16, 24, 32):
            cfg = {
                "measure": TWO_POINT,
                "ensemble": {"N_values": [n], "seed": 5},
                "grid": {"eta_min": 0.2, "eta_max": 1.0, "w_abs": 1.4, "trials": 2},
            }
            p = write_cfg(tmp_path / f"c{n}.json", cfg)
            d = tmp_path / f"run{n}"
            assert main(["local-law", "--config", p, "--out", str(d)]) == EXIT_OK
            dirs.append(str(d))
        rep = tmp_path / "rep"
        assert main(["report", *dirs, "--out", str(rep)]) == EXIT_OK
        rows = read_csv(rep / "summary.csv")
        assert [r[0] for r in rows] == ["N", "16", "24", "32", "slope", rows[5][0]]
        assert rows[5][2] in ("pass", "fail")

    def test_empty_input_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "rep")]) == EXIT_CONFIG

    def test_missing_csv_exits_2(self, tmp_path):
        empty = tmp_path / "emptyrun"
        empty.mkdir()
        assert main(["report", str(empty), "--out", str(tmp_path / "r")]) == EXIT_CONFIG


class TestUsage:
    def test_unknown_command_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x", "--out", "y"])
        assert exc.value.code == EXIT_USAGE

    def test_no_command_exits_64(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_run_helper_rejects_unknown(self, tmp_path, capsys):
        assert cli.run("nope", "x.json", str(tmp_path / "o")) == EXIT_USAGE

    def test_module_entry_point_imports_cleanly(self, tmp_path):
        # `python -m singlering.cli` must not find the module already
        # imported by the package (runpy's RuntimeWarning)
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT})
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "singlering.cli",
             "validate", "--config", p],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr

    RUNNABLE = {
        "ring-density": {
            "measure": {"kind": "quarter_circle", "n_atoms": 40},
            "params": {"s_min": 0.3, "s_max": 0.8, "n_radii": 3},
        },
        "certificate": {"measure": TWO_POINT, "params": {"r": 1.4}},
        "local-law": {
            "measure": TWO_POINT,
            "ensemble": {"N_values": [16], "seed": 1},
            "grid": {"eta_min": 0.2, "eta_max": 1.0, "w_abs": 1.4, "trials": 1},
        },
        "block-law": BLOCK,
        "green-sub": GREEN_SUB,
        "main-gap": MAIN_GAP,
    }

    @pytest.mark.parametrize("command", sorted(RUNNABLE))
    def test_runnable_configs_validate(self, tmp_path, command):
        p = write_cfg(tmp_path / "c.json", self.RUNNABLE[command])
        assert main(["validate", "--config", p, "--for-command", command]) == EXIT_OK

    def test_import_loads_no_scipy(self, tmp_path):
        # every solving command runs on measure._brentq; a finder refuses and
        # records every scipy import, so a guarded one fails the test too
        runs = [
            [cmd, "--config", write_cfg(tmp_path / f"{cmd}.json", cfg),
             "--out", str(tmp_path / cmd)]
            for cmd, cfg in self.RUNNABLE.items()
        ]
        code = textwrap.dedent(
            """
            import json, sys

            refused = []

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        refused.append(name)
                        raise ImportError(f"runtime import of {name}")

            sys.meta_path.insert(0, NoScipy())
            from singlering.cli import main
            codes = [main(argv) for argv in json.loads(sys.argv[1])]
            print(json.dumps([codes, refused]))
            """
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        codes, refused = json.loads(proc.stdout.strip().splitlines()[-1])
        assert codes == [EXIT_OK] * len(runs), proc.stderr
        assert refused == []
