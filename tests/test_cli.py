import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from oracles import axis_m_decimal
from singlering import cli, freeconv, locallaw, ringlaw
from singlering.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, config_hash, fmt, main
from singlering.freeconv import ConvergenceError
from singlering.measure import DiscreteMeasure, stieltjes, symmetrize

TWO_POINT = {"atoms": [1.0, 2.0], "weights": [0.5, 0.5]}


def write_cfg(path, cfg):
    """Write cfg as JSON; a str is written as it is, as JSON that json.dump cannot write."""
    with open(path, "w") as fh:
        fh.write(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def exit_and_stderr(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        for x in (1 / 3, math.sqrt(2.5), 1e-17, -math.pi * 1e8):
            assert float(fmt(x)) == x

    def test_hash_is_canonical(self):
        a = {"b": 1, "a": [1.5, 2]}
        b = {"a": [1.5, 2], "b": 1}
        assert config_hash(a) == config_hash(b)


class TestValidate:
    def test_valid_config_empty_report(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT})
        assert exit_and_stderr(capsys, ["validate", "--config", p]) == (EXIT_OK, "")
        argv = ["validate", "--config", p, "--for-command", "radii"]
        assert exit_and_stderr(capsys, argv) == (EXIT_OK, "")

    def test_missing_weights_names_path(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.json", {"measure": {"atoms": [1.0, 2.0]}})
        argv = ["validate", "--config", p, "--for-command", "radii"]
        assert exit_and_stderr(capsys, argv) == (
            EXIT_CONFIG, "invalid config: measure.weights: missing\n"
        )

    def test_weights_not_summing_names_measure(self, tmp_path, capsys):
        p = write_cfg(
            tmp_path / "c.json", {"measure": {"atoms": [1.0, 2.0], "weights": [0.7, 0.6]}}
        )
        code, err = exit_and_stderr(capsys, ["validate", "--config", p, "--for-command", "radii"])
        assert code == EXIT_CONFIG
        assert err.startswith("invalid config: measure: ") and "sum" in err

    def test_empty_annulus_names_tau(self, tmp_path, capsys):
        p = write_cfg(
            tmp_path / "c.json",
            {
                "measure": TWO_POINT,
                "ensemble": {"N_values": [16], "seed": 1},
                "grid": {"tau": 0.5, "trials": 1},
            },
        )
        argv = ["validate", "--config", p, "--for-command", "local-law"]
        code, err = exit_and_stderr(capsys, argv)
        assert code == EXIT_CONFIG
        assert err.startswith("invalid config: grid.tau: ") and "annulus" in err

    def test_unparseable_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        code, err = exit_and_stderr(capsys, ["validate", "--config", str(p)])
        assert code == EXIT_CONFIG
        assert err.startswith("invalid config: config: ") and err.count("\n") == 1


def amend(cfg, block, **keys):
    """A copy of cfg whose section ``block`` has ``keys`` set."""
    return dict(cfg, **{block: dict(cfg.get(block, {}), **keys)})


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
SSV = {"measure": TWO_POINT, "ensemble": {"N": 16, "seed": 1}, "grid": {"w_abs": 1.4, "trials": 4}}
LOCAL_LAW = {
    "measure": TWO_POINT,
    "ensemble": {"N_values": [16], "seed": 1},
    "grid": {"eta_min": 0.2, "eta_max": 1.0, "w_abs": 1.4, "trials": 1},
}
TWO_SIZES = {"N_values": [16, 24], "seed": 1}
SUPPORT_AT_512 = amend(MAIN_GAP, "params", alphas=[0.1], support_radii=[2.0])


HUGE_RING = {"atoms": [1e200, 2e200], "weights": [0.5, 0.5]}  # its ring is (1.265e200, 1.581e200)

# (command, config, a fragment of the message): the command's parser, which
# validate and the run share, rejects each config
BAD_CONFIGS = [
    ("ring-density", {"measure": TWO_POINT, "params": {"s_min": 1.5, "s_max": 1.4}},
     "s_min <= s_max"),
    ("main-gap", amend(MAIN_GAP, "params", w0=[3.0, 0.0]), "params.w0: |w0| = 3"),
    ("local-law",
     {"measure": {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
      "ensemble": {"N_values": [16], "seed": 1},
      "grid": {"w_abs": 1.0, "trials": 1}},
     "measure: radii expects"),
    ("main-gap", amend(MAIN_GAP, "params", w0=[1.4]), "params.w0: expected a pair"),
    ("main-gap", amend(MAIN_GAP, "params", alphas=[0.0, 0.25]), "params.support_radii: 1 radii"),
    ("main-gap", amend(MAIN_GAP, "params", alphas=[0.7]), "params.alphas: each alpha"),
    ("green-sub", amend(GREEN_SUB, "params", z_values=[[0.1]]), "params.z_values[0]"),
    ("green-sub", amend(GREEN_SUB, "params", bulk_window=[0.5]), "params.bulk_window"),
    ("block-law", amend(BLOCK, "params", E_interval=[0.1]), "params.E_interval"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.0, "z_grid": [[0.0, 1.0], [0.1]]}},
     "params.z_grid[1]"),
    ("certificate", {"measure": TWO_POINT, "params": {"r": 5.0}},
     "params.r: r = 5.0 violates the bulk hypothesis"),
    ("green-sub", amend(GREEN_SUB, "params", z_values=[[0.0, 0.25], [0.0, -0.25]]),
     "params.z_values[1]: need Im z > 0;"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.0, "z_grid": [[0.0, 1.0], [0.5, 0.0]]}},
     "params.z_grid[1]: need Im z > 0, or z = i eta with eta >= 0"),
    ("freeconv", {"measure": TWO_POINT, "measure2": TWO_POINT, "params": {"z_grid": [[0.0, 0.0]]}},
     "params.z_grid[0]: need Im z > 0;"),
    ("block-law", amend(BLOCK, "params", E_interval=[0.2, 0.1]), "params.E_interval: empty"),
    # the support N^-alpha R is widest at the smallest size: 2.0 * 512^-0.1 = 1.07
    # passes |w0| = 1.4 (a GOOD_CONFIGS row), 2.0 * 16^-0.1 = 1.52 does not
    ("main-gap", dict(SUPPORT_AT_512, ensemble={"N_values": [16, 512], "seed": 1}),
     "invalid config: params.support_radii: test function support touches w = 0: "
     "N^-alpha R = 1.51572 >= |w0| = 1.4 at alpha = 0.1, N = 16\n"),
    ("ssv-tail", dict(SSV, ensemble=TWO_SIZES), "ensemble.N_values: this command runs one"),
    ("ssv-tail", dict(SSV, measure={"atoms": [-1.0, 2.0], "weights": [0.5, 0.5]}),
     "invalid config: measure: radii expects a measure supported on nonnegative reals\n"),
    ("main-gap", amend(MAIN_GAP, "params", alphas=[0.0], support_radii=[2.0]),
     "params.support_radii: test function support touches w = 0"),
    # list elements that are not numbers, read by one typed reader
    ("main-gap", amend(MAIN_GAP, "params", alphas=[None]),
     "params.alphas: expected a list of numbers"),
    ("main-gap", amend(MAIN_GAP, "params", support_radii=[None]),
     "params.support_radii: expected a list of numbers"),
    ("local-law", amend(LOCAL_LAW, "grid", w_phases=["x"]),
     "grid.w_phases: expected a list of numbers"),
    ("ssv-tail", amend(SSV, "params", t_grid=["x"]), "params.t_grid: expected a list of numbers"),
    ("local-law", amend(LOCAL_LAW, "ensemble", N_values=["16"]),
     "ensemble.N_values: expected a list of integers"),
    ("radii", {"measure": {"atoms": [1.0, "x"], "weights": [0.5, 0.5]}},
     "measure.atoms: expected a list of numbers"),
    # seeds, trial counts and sizes out of range
    ("main-gap", amend(MAIN_GAP, "ensemble", seed=-1), "ensemble.seed: need seed >= 0, got -1"),
    ("ssv-tail", amend(SSV, "grid", trials=0), "grid.trials: need trials >= 1, got 0"),
    ("main-gap", amend(MAIN_GAP, "grid", trials=0), "grid.trials: need trials >= 1, got 0"),
    ("green-sub", amend(GREEN_SUB, "grid", trials=0), "grid.trials: need trials >= 1, got 0"),
    ("main-gap", amend(MAIN_GAP, "ensemble", N=1), "ensemble.N: need one or more sizes N >= 2"),
    # parser checks that no other row reaches
    ("local-law", amend(LOCAL_LAW, "ensemble", symmetry="real"),
     "ensemble.symmetry: unknown class 'real'"),
    ("local-law", amend(LOCAL_LAW, "ensemble", N_values=[]),
     "ensemble.N_values: need one or more sizes N >= 2, got []"),
    ("local-law", amend(LOCAL_LAW, "grid", tau=-0.1), "grid.tau: need tau >= 0"),
    ("ring-density", {"measure": TWO_POINT, "params": {"s_min": 1.3, "s_max": 1.5, "n_radii": 3.5}},
     "params.n_radii: expected int, got float"),
    # configs the run would reject or misread after validate passed
    ("ring-density", {"measure": TWO_POINT, "params": {"s_min": 1.4, "s_max": 1.4}},
     "params: s_min = s_max = 1.4 spans no radius grid"),
    ("certificate", {"measure": TWO_POINT, "params": {"r": 1.4, "grid": 1}},
     "params.grid: need grid >= 2, got 1"),
    ("certificate", {"measure": TWO_POINT, "params": {"r": 1.4, "eta_max": -1}},
     "params.eta_max: need eta_max > 0, got -1"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": -1}}, "params.r: need r > 0, got -1"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 3.0, "z_grid": [[0.0, 1.0], [0.0, 0.0]]}},
     "params.r: r = 3.0 violates the bulk hypothesis"),
    ("block-law", amend(BLOCK, "params", n_energies=0), "params.n_energies: need n_energies >= 1"),
    ("ssv-tail", amend(SSV, "params", t_grid=[]), "params.t_grid: need one or more t"),
    ("ssv-tail", amend(SSV, "grid", w_abs=0), "grid.w_abs: need w_abs > 0, got 0"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.4}, "grid": {"eta_min": 2.0, "eta_max": 1.0}},
     "grid: need 0 < eta_min < eta_max"),
    # a scalar is read by the rule of the lists: a bool is no number, null no value
    ("main-gap", amend(MAIN_GAP, "ensemble", seed=True), "ensemble.seed: expected int, got bool"),
    ("ssv-tail", amend(SSV, "grid", trials=True), "grid.trials: expected int, got bool"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": True}},
     "params.r: expected int/float, got bool"),
    ("local-law", amend(LOCAL_LAW, "grid", eta_max=True), "grid.eta_max: expected int/float, got bool"),
    ("certificate", {"measure": TWO_POINT, "params": {"r": None}},
     "params.r: expected int/float, got NoneType"),
    ("radii", {"measure": {"kind": "uniform", "n_atoms": True}},
     "measure.n_atoms: expected int, got bool"),
    # the bulk test of block-law's energies makes a solve in the parser
    ("block-law", amend(BLOCK, "params", E_interval=[3.0, 3.0]),
     "params.E_interval: interval [3.0, 3.0] leaves the bulk: density"),
    ("radii", {"measure": {"kind": "two_point", "b": 2.0}}, "invalid config: measure.a: missing\n"),
    # a one-atom measure is named once, with no degenerate-ring warning (pytest
    # makes any warning an error)
    ("local-law", dict(LOCAL_LAW, measure={"atoms": [1.0], "weights": [1.0]}),
     "invalid config: measure: a single atom makes the ring degenerate"),
    ("main-gap", dict(MAIN_GAP, measure={"atoms": [1.0], "weights": [1.0]}),
     "invalid config: measure: a single atom makes the ring degenerate"),
    # a key that the named law does not take is named, not ignored
    ("radii", {"measure": {"kind": "two_point", "a": 1.0, "b": 2.0, "P": 0.3}},
     "invalid config: measure.P: two_point takes a, b, p\n"),
    ("radii", {"measure": {"kind": "quarter_circle", "n_atoms": 8, "b": 2.0}},
     "invalid config: measure.b: quarter_circle takes n_atoms\n"),
    ("main-gap", amend(MAIN_GAP, "params", support_radii=[0.0]),
     "invalid config: params.support_radii: support radius must be positive\n"),
    ("main-gap", amend(MAIN_GAP, "params", support_radii=[-0.5]),
     "invalid config: params.support_radii: support radius must be positive\n"),
    ("radii", {"measure": {"kind": "two_point", "a": 1.0, "b": 2.0, "n_atoms": 7}},
     "invalid config: measure.n_atoms: two_point takes a, b, p\n"),
    # |w| and w0 lie in the shrunk annulus [sqrt(1.6) + tau, sqrt(2.5) - tau]; the
    # default tau = 5% of the width = 0.0158114 makes it [1.28072, 1.56533]
    ("main-gap", amend(MAIN_GAP, "params", w0=[1.28, 0.0]),
     "invalid config: params.w0: |w0| = 1.28 outside the annulus [1.28072, 1.56533]\n"),
    ("main-gap", amend(MAIN_GAP, "params", w0=[0.0, 1.57]),
     "invalid config: params.w0: |w0| = 1.57 outside the annulus [1.28072, 1.56533]\n"),
    ("main-gap", amend(amend(MAIN_GAP, "grid", tau=0.05), "params", w0=[1.3, 0.0]),
     "invalid config: params.w0: |w0| = 1.3 outside the annulus [1.31491, 1.53114]\n"),
    ("local-law", amend(LOCAL_LAW, "grid", w_abs=2.0),
     "invalid config: grid.w_abs: |w| = 2 outside the annulus [1.28072, 1.56533]\n"),
    ("main-gap", amend(MAIN_GAP, "grid", tau=0.2),
     "invalid config: grid.tau: tau = 0.2 empties the annulus [r_minus + tau, r_plus - tau]"),
    ("local-law", amend(LOCAL_LAW, "grid", w_phases=[]),
     "invalid config: grid.w_phases: need one or more phases\n"),
    # checks that the library made at run time, after the output directory existed
    ("ssv-tail",
     dict(SSV, measure={"atoms": [1.0], "weights": [1.0]},
          ensemble={"N": 16, "symmetry": "orthogonal", "seed": 1}),
     "invalid config: measure: orthogonal-class tail runs need a singular value profile away"
     " from the identity\n"),
    ("green-sub", amend(GREEN_SUB, "params", bulk_window=[2.0, 1.0]),
     "invalid config: params.bulk_window: empty singular value window [2.0, 1.0]\n"),
    ("ring-density",
     {"measure": {"atoms": [-1.0, 2.0], "weights": [0.5, 0.5]},
      "params": {"s_min": 1.3, "s_max": 1.5}},
     "invalid config: measure: radii expects a measure supported on nonnegative reals\n"),
    # json.load reads NaN and Infinity, which are no numbers
    ("freeconv", {"measure": TWO_POINT, "params": {"r": math.inf}},
     "invalid config: params.r: expected a finite number, got inf\n"),
    ("ssv-tail", amend(SSV, "grid", w_abs=math.nan),
     "invalid config: grid.w_abs: expected a finite number, got nan\n"),
    ("certificate", {"measure": TWO_POINT, "params": {"r": 1.4, "eta_max": math.inf}},
     "invalid config: params.eta_max: expected a finite number, got inf\n"),
    ("ring-density", {"measure": TWO_POINT, "params": {"s_min": 1.3, "s_max": math.inf}},
     "invalid config: params.s_max: expected a finite number, got inf\n"),
    ("radii", {"measure": {"atoms": [1.0, -math.inf], "weights": [0.5, 0.5]}},
     "invalid config: measure.atoms: expected a list of numbers, got [1.0, -inf]\n"),
    ("ring-density", {"measure": TWO_POINT, "params": {"s_min": 1.3, "s_max": 1.5, "n_radii": 1}},
     "invalid config: params.n_radii: need n_radii >= 2, got 1\n"),
    # nor is an integer beyond the float range
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 10**400}},
     "invalid config: params.r: expected a finite number, got 1000"),
    ("radii", {"measure": {"atoms": [1.0, 10**400], "weights": [0.5, 0.5]}},
     "invalid config: measure.atoms: expected a list of numbers, got [1.0, 1000"),
    # nor one longer than json.load reads, which is a fault of the file
    pytest.param(
        "freeconv", '{"measure": %s, "params": {"r": 1%s}}' % (json.dumps(TWO_POINT), "0" * 5000),
        "invalid config: config: Exceeds the limit (4300 digits)", id="freeconv-5001-digits",
    ),
    # a profile too large to allocate: 8 * 10**15 bytes exceed any address space,
    # so the allocation fails at once whatever the overcommit policy
    ("local-law", amend(LOCAL_LAW, "ensemble", N_values=[10**15]),
     "invalid config: ensemble.N_values: Unable to allocate"),
    ("ssv-tail", amend(SSV, "ensemble", N=10**15), "invalid config: ensemble.N: Unable to allocate"),
    ("block-law", amend(BLOCK, "ensemble", N_values=[16, 10**15]),
     "invalid config: ensemble.N_values: Unable to allocate"),
    # the eta bounds are read before the grid check, so a bad one is named once
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.4}, "grid": {"eta_max": True}},
     "invalid config: grid.eta_max: expected int/float, got bool\n"),
    # an empty list of test points would run and write a header-only CSV
    ("main-gap", amend(MAIN_GAP, "params", alphas=[]),
     "invalid config: params.alphas: need one or more alphas\n"),
    ("green-sub", amend(GREEN_SUB, "params", z_values=[]),
     "invalid config: params.z_values: need one or more points\n"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.4, "z_grid": []}},
     "invalid config: params.z_grid: need one or more points\n"),
    # an eta or Im z whose square overflows, which a solve divides by
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.4}, "grid": {"eta_max": 1e160}},
     "invalid config: grid.eta_max: need eta_max <= 1.34078e+154, got 1e+160\n"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1.4, "z_grid": [[0.0, 1.0], [0.0, 1e160]]}},
     "invalid config: params.z_grid[1]: need Im z <= 1.34078e+154, got 1e+160\n"),
    ("certificate", {"measure": TWO_POINT, "params": {"r": 1.4, "eta_max": 1e155}},
     "invalid config: params.eta_max: need eta_max <= 1.34078e+154, got 1e+155\n"),
    ("local-law", amend(LOCAL_LAW, "grid", eta_min=1e150, eta_max=1e160),
     "invalid config: grid.eta_max: need eta_max <= 1.34078e+154, got 1e+160\n"),
    ("green-sub", amend(GREEN_SUB, "params", z_values=[[0.0, 1e160]]),
     "invalid config: params.z_values[0]: need Im z <= 1.34078e+154, got 1e+160\n"),
    # an inner ring radius past the float range, which would be written as 0
    ("radii", {"measure": {"atoms": [1e-200, 2.0], "weights": [0.5, 0.5]}},
     "invalid config: measure: the ring radii need finite moments, got int x^2 dmu = 2 and"),
    # a measure whose int x^2 dmu overflows, which every radius, solve and sample reads
    ("ring-density", {"measure": HUGE_RING, "params": {"s_min": 1.3e200, "s_max": 1.5e200}},
     "invalid config: measure: int x^2 dmu = inf is past the float range\n"),
    ("ring-density", {"measure": {"atoms": [1e200], "weights": [1.0]},
                      "params": {"s_min": 1e199, "s_max": 2e200}},
     "invalid config: measure: int x^2 dmu = inf is past the float range\n"),
    ("certificate", {"measure": HUGE_RING, "params": {"r": 1.5e200}},
     "invalid config: measure: int x^2 dmu = inf is past the float range\n"),
    ("freeconv", {"measure": TWO_POINT, "params": {"r": 1e200}},
     "invalid config: params.r: need r <= 1.34078e+154, got 1e+200\n"),
    # the same measure where the command reads no ring radius
    ("freeconv", {"measure": HUGE_RING, "params": {"r": 1.0}},
     "invalid config: measure: int x^2 dmu = inf is past the float range\n"),
    ("freeconv", {"measure": TWO_POINT, "measure2": HUGE_RING, "params": {"z_grid": [[0.5, 0.1]]}},
     "invalid config: measure2: int x^2 dmu = inf is past the float range\n"),
    ("green-sub", dict(GREEN_SUB, measure=HUGE_RING),
     "invalid config: measure: int x^2 dmu = inf is past the float range\n"),
    ("block-law", dict(BLOCK, measure=HUGE_RING),
     "invalid config: measure: int x^2 dmu = inf is past the float range\n"),
    ("ssv-tail", amend(dict(SSV, measure=HUGE_RING), "grid", w_abs=1.4e200),
     "invalid config: measure: int x^2 dmu = inf is past the float range\n"),
]

# configs next to rejected ones that the command's parser accepts
GOOD_CONFIGS = [
    ("main-gap", amend(MAIN_GAP, "params", w0=[1.29, 0.0])),
    ("main-gap", amend(MAIN_GAP, "params", w0=[0.0, 1.56])),
    ("main-gap", amend(amend(MAIN_GAP, "grid", tau=0.05), "params", w0=[1.32, 0.0])),
    ("local-law", amend(LOCAL_LAW, "grid", w_abs=1.29, w_phases=[0.0, 1.0])),
    # the w grid belongs to local-law; block-law reads none of it
    ("block-law", amend(BLOCK, "grid", w_abs=2.0, w_phases=["x"])),
    ("ssv-tail", amend(SSV, "ensemble", symmetry="orthogonal")),
    ("green-sub", amend(GREEN_SUB, "params", bulk_window=[0.5, 0.5])),
    # every Monte Carlo command but ssv-tail runs each size of ensemble.N_values
    ("main-gap", dict(MAIN_GAP, ensemble=TWO_SIZES)),
    ("green-sub", dict(GREEN_SUB, ensemble=TWO_SIZES)),
    ("main-gap", dict(SUPPORT_AT_512, ensemble={"N": 512, "seed": 1})),
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

    @pytest.mark.parametrize("command,cfg", GOOD_CONFIGS)
    def test_validate_accepts(self, tmp_path, capsys, command, cfg):
        p = write_cfg(tmp_path / "c.json", cfg)
        argv = ["validate", "--config", p, "--for-command", command]
        assert exit_and_stderr(capsys, argv) == (EXIT_OK, "")


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

    def test_failed_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise ConvergenceError("fixed point stalled")

        monkeypatch.setattr(freeconv, "bulk_bound_certificate", stall)
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT, "params": {"r": 1.4}})
        argv = ["certificate", "--config", p, "--out", str(tmp_path / "run")]
        assert exit_and_stderr(capsys, argv) == (
            EXIT_NUMERICAL, "numerical failure: fixed point stalled\n"
        )

    def test_traced_run_loads_every_layer_and_counts_solves(self, tmp_path):
        # perfbench/spans.py wraps the public functions of each layer module
        # it finds in sys.modules after `import singlering.cli`; a layer that
        # import does not load fails the run with a KeyError
        root = Path(__file__).resolve().parents[1]
        spans = root / "perfbench" / "spans.py"
        layers = ast.literal_eval(
            re.search(r"^LAYERS = (\(.*\))$", spans.read_text(), re.M).group(1)
        )
        modules = {p.stem for p in (root / "src" / "singlering").glob("*.py")}
        assert set(layers) == modules - {"__init__", "cli"}

        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT, "params": {"r": 1.4, "grid": 8}})
        trace = tmp_path / "trace.json"
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, str(spans), str(trace),
             "certificate", "--config", p, "--out", str(tmp_path / "run")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        traced = json.loads(trace.read_text())["spans"]
        # the z = 0 solve and one per grid point
        assert traced["freeconv.solve_delta_conv"][0] == 9
        assert {name.split(".")[0] for name in traced} <= {"cli", *layers}


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

    def test_delta_axis_rows_count_root_finder_iterations(self, tmp_path):
        axis = {"r": 1.4, "z_grid": [[0.0, 0.0], [0.0, 0.1], [0.0, 1.0]]}
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT, "params": axis})
        out = tmp_path / "run"
        assert main(["freeconv", "--config", p, "--out", str(out)]) == EXIT_OK
        with open(out / "freeconv.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 and all(int(r["iterations"]) > 0 for r in rows)

    def test_two_measure_route_on_the_default_axis_grid(self, tmp_path):
        # without params.z_grid the points are z = i eta on the dyadic grid of grid.eta_*
        mu2 = {"atoms": [0.5, 1.5], "weights": [0.5, 0.5]}
        p = write_cfg(
            tmp_path / "c.json",
            {"measure": TWO_POINT, "measure2": mu2, "grid": {"eta_min": 0.2, "eta_max": 2.0}},
        )
        out = tmp_path / "run"
        assert main(["freeconv", "--config", p, "--out", str(out)]) == EXIT_OK
        with open(out / "freeconv.csv") as fh:
            rows = list(csv.DictReader(fh))
        etas = [2.0, 1.0, 0.5, 0.25]
        assert [(float(r["z_re"]), float(r["z_im"])) for r in rows] == [(0.0, e) for e in etas]
        mu1, mu2 = (symmetrize(DiscreteMeasure(m["atoms"], m["weights"])) for m in (TWO_POINT, mu2))
        for r, eta in zip(rows, etas):
            state = freeconv.solve_phi_system(mu1, mu2, 1j * eta)
            assert complex(float(r["m_re"]), float(r["m_im"])) == state.m
            assert float(r["residual"]) < 1e-10 and state.m.imag > 0

    # two pairs whose convolution has a gap at 0, with the 60-digit Im m(1e-10 i);
    # Newton polishing a complex-arithmetic axis state stalled on the first (exit 3)
    # and left the axis on the second, writing m = 1.615e-8 + 1.403e-8i
    GAPPED = [
        ({"atoms": [0.1767, 2.2838], "weights": [0.583, 0.417]},
         {"atoms": [0.5124, 2.4161, 4.6963, 8.4398, 9.4562],
          "weights": [0.0638, 0.2938, 0.1622, 0.3224, 0.1578]},
         9.3944870570287064645e-11),
        ({"atoms": [0.5682, 2.2025], "weights": [0.899, 0.101]},
         {"atoms": [0.5747, 1.5055, 3.2072, 4.4001, 6.8051],
          "weights": [0.1482, 0.3325, 0.0792, 0.0858, 0.3543]},
         1.1829928428089443985e-10),
    ]

    @pytest.mark.parametrize("mu1, mu2, m_im", GAPPED, ids=["stalled", "off-axis"])
    def test_gapped_pair_on_the_axis_matches_the_decimal_oracle(self, tmp_path, mu1, mu2, m_im):
        cfg = {"measure": mu1, "measure2": mu2, "params": {"z_grid": [[0.0, 1e-10]]}}
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["validate", "--config", p, "--for-command", "freeconv"]) == EXIT_OK
        out = tmp_path / "run"
        assert main(["freeconv", "--config", p, "--out", str(out)]) == EXIT_OK
        with open(out / "freeconv.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        mu1, mu2 = (symmetrize(DiscreteMeasure(m["atoms"], m["weights"])) for m in (mu1, mu2))
        oracle = float(axis_m_decimal(mu1, mu2, 1e-10))
        assert oracle == pytest.approx(m_im, rel=1e-15)
        assert float(row["m_re"]) == float(row["omega1_re"]) == float(row["omega2_re"]) == 0.0
        assert float(row["m_im"]) == pytest.approx(oracle, rel=1e-13, abs=0)

    # the symmetrized two-point (1, 2) against +-1: 0 lies in a gap, m(i eta) = (5/3) eta i,
    # whose axis root a bracket search capped at 200 doublings or halvings never reached
    GAPPED_AGAINST_BERNOULLI = {"measure": TWO_POINT,
                                "measure2": {"atoms": [1.0], "weights": [1.0]}}

    def test_gapped_pair_solves_at_tiny_eta(self, tmp_path):
        cfg = dict(self.GAPPED_AGAINST_BERNOULLI, params={"z_grid": [[0.0, 1e-100]]})
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["validate", "--config", p, "--for-command", "freeconv"]) == EXIT_OK
        out = tmp_path / "run"
        assert main(["freeconv", "--config", p, "--out", str(out)]) == EXIT_OK
        with open(out / "freeconv.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        mu1, mu2 = (symmetrize(DiscreteMeasure(cfg[k]["atoms"], cfg[k]["weights"]))
                    for k in ("measure", "measure2"))
        oracle = float(axis_m_decimal(mu1, mu2, 1e-100))
        assert float(row["m_im"]) == pytest.approx(oracle, rel=1e-13, abs=0)

    def test_axis_state_past_the_float_range_is_a_numerical_failure(self, tmp_path, capsys):
        # at eta = 1e-200, Im omega1 ~ 0.6/eta squares to inf and the axis gap divides 0 by 0
        cfg = dict(self.GAPPED_AGAINST_BERNOULLI, params={"z_grid": [[0.0, 1e-200]]})
        p = write_cfg(tmp_path / "c.json", cfg)
        argv = ["freeconv", "--config", p, "--out", str(tmp_path / "run")]
        assert exit_and_stderr(capsys, argv) == (
            EXIT_NUMERICAL, "numerical failure: y^2 overflows in the axis solve at eta = 1e-200\n"
        )


class TestPointMassMeasure2:
    """measure2 = delta_0 makes the convolution an exact shift by 0."""

    ZERO = {"atoms": [0.0], "weights": [1.0]}

    def test_freeconv_transform_is_the_first_measure_s(self, tmp_path):
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT, "measure2": self.ZERO})
        out = tmp_path / "run"
        assert main(["freeconv", "--config", p, "--out", str(out)]) == EXIT_OK
        header, *rows = read_csv(out / "freeconv.csv")
        mu = symmetrize(DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.5, 0.5])))
        assert rows
        for row in rows:
            cell = dict(zip(header, map(float, row)))
            z = complex(cell["z_re"], cell["z_im"])
            assert complex(cell["m_re"], cell["m_im"]) == stieltjes(mu, z)
            assert cell["iterations"] == 0

    def test_green_sub_omegas_are_exact(self, tmp_path):
        # xi = 0: Y = U V* has every singular value 1, and H = U~ B U~* holds
        # the omegas of the shift exactly
        cfg = amend(dict(GREEN_SUB, measure2=self.ZERO), "params", bulk_window=[0.5, 1.5])
        p = write_cfg(tmp_path / "c.json", cfg)
        out = tmp_path / "run"
        assert main(["green-sub", "--config", p, "--out", str(out)]) == EXIT_OK
        header, *rows = read_csv(out / "subordination.csv")
        assert len(rows) == 1
        cell = dict(zip(header, map(float, rows[0])))
        assert all(math.isfinite(x) for x in cell.values())
        assert cell["omegaA_gap"] < 1e-10 and cell["omegaB_gap"] < 1e-10


class TestOutputFaults:
    def test_out_naming_a_file_is_one_config_line(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.json", LOCAL_LAW)
        run = str(tmp_path / "run")
        assert main(["local-law", "--config", p, "--out", run]) == EXIT_OK
        afile = tmp_path / "afile"
        afile.write_text("")
        for argv in (["local-law", "--config", p, "--out", str(afile)],
                     ["report", run, "--out", str(afile)]):
            code, err = exit_and_stderr(capsys, argv)
            assert code == EXIT_CONFIG
            assert err.startswith("invalid config: --out: ") and err.count("\n") == 1

    def test_ssv_fit_is_strict_json(self, tmp_path):
        # no t of the grid is informative, so the slope is not a number
        p = write_cfg(tmp_path / "c.json", amend(SSV, "params", t_grid=[100.0]))
        out = tmp_path / "run"
        assert main(["ssv-tail", "--config", p, "--out", str(out)]) == EXIT_OK

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        fit = json.loads((out / "ssv_fit.json").read_text(), parse_constant=refuse)
        assert fit["slope"] is None and fit["slope_ci"] == [None, None]
        assert fit["t_grid"] == [100.0]


class TestRecordHeaders:
    """The record types are the CSV schemas, so a renamed field renames a column."""

    HEADERS = {
        ("freeconv", "freeconv.csv"):
            "z_re,z_im,omega1_re,omega1_im,omega2_re,omega2_im,m_re,m_im,residual,iterations",
        ("local-law", "locallaw.csv"): "N,trial,w_re,w_im,eta,dev",
        ("local-law", "locallaw_split.csv"):
            "N,trial,w_re,w_im,eta_star,small_eta_integral,lambda1",
        ("main-gap", "gap.csv"): "N,trial,alpha,w0_re,w0_im,lhs,rhs,gap_norm",
        ("block-law", "block.csv"): "N,trial,E,eta,dev",
        ("green-sub", "subordination.csv"):
            "N,trial,z_re,z_im,lambda_d_scaled,omegaB_gap,omegaA_gap,eigvec_sup",
    }

    def test_each_output_starts_with_its_literal_header(self, tmp_path):
        configs = dict(
            TestUsage.RUNNABLE,
            freeconv={"measure": TWO_POINT, "params": {"r": 1.4, "z_grid": [[0.0, 1.0]]}},
        )
        for (command, name), header in self.HEADERS.items():
            out = tmp_path / command
            if not out.exists():
                p = write_cfg(tmp_path / f"{command}.json", configs[command])
                assert main([command, "--config", p, "--out", str(out)]) == EXIT_OK
            assert (out / name).read_text().split("\n")[0] == header
        # the header comes from the type, so an empty output has one too
        cli._write_records(tmp_path / "empty.csv", locallaw.BlockRecord, [])
        assert (tmp_path / "empty.csv").read_text() == "N,trial,E,eta,dev\n"


class TestRecordRoundTrip:
    """Every CSV of every computing command is written from its record type:
    it reads back as records, and writing those again gives the same bytes."""

    SCHEMAS = {
        "radii.csv": cli.RadiiRecord,
        "freeconv.csv": freeconv.SubordinationState,
        "ring_density.csv": ringlaw.RingRecord,
        "locallaw.csv": locallaw.DevRecord,
        "locallaw_split.csv": locallaw.SplitRecord,
        "gap.csv": locallaw.GapRecord,
        "ssv.csv": locallaw.SsvRecord,
        "block.csv": locallaw.BlockRecord,
        "subordination.csv": locallaw.SubDiagRecord,
    }

    def test_every_csv_round_trips(self, tmp_path):
        configs = {
            **TestUsage.RUNNABLE,
            "radii": {"measure": TWO_POINT},
            "freeconv": {
                "measure": TWO_POINT, "params": {"r": 1.4, "z_grid": [[0, 0], [0.3, 0.2]]}
            },
            "ssv-tail": SSV,
        }
        assert sorted(configs) == sorted(cli._COMMAND_IMPL)
        seen = set()
        for command, cfg in configs.items():
            out = tmp_path / command
            p = write_cfg(tmp_path / f"{command}.json", cfg)
            assert main([command, "--config", p, "--out", str(out)]) == EXIT_OK
            for path in sorted(out.glob("*.csv")):
                records = cli._read_records(path, self.SCHEMAS[path.name])
                assert records
                again = tmp_path / "again.csv"
                cli._write_records(again, self.SCHEMAS[path.name], records)
                assert again.read_bytes() == path.read_bytes(), (command, path.name)
                seen.add(path.name)
        assert seen == set(self.SCHEMAS)


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

    def test_one_atom_warns_once(self, tmp_path):
        # the parser's radii check does not warn, so validate stays silent (pytest
        # makes any warning an error) and the run warns once, from its one profile
        one_atom = {"atoms": [1.0], "weights": [1.0]}
        cfg = {"measure": one_atom, "params": {"s_min": 0.5, "s_max": 1.5}}
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["validate", "--config", p, "--for-command", "ring-density"]) == EXIT_OK
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="the ring is degenerate") as record:
            assert main(["ring-density", "--config", p, "--out", str(out)]) == EXIT_OK
        assert [w.category for w in record] == [UserWarning]
        assert len(read_csv(out / "ring_density.csv")) == 1 + 17


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

    def test_each_size_is_quantized_from_the_measure(self, tmp_path):
        # N = 512 is the (i - 1/2)/512 quantiles of the measure (154 atoms at
        # a), whichever size comes first, so its rows do not depend on it
        rows = {}
        for first in (100, 128):
            cfg = {
                "measure": {"kind": "two_point", "a": 1.0, "b": 2.0, "p": 0.3},
                "ensemble": {"N_values": [first, 512], "seed": 3},
                "grid": {"eta_min": 0.1, "eta_max": 1.0, "w_abs": 1.6, "trials": 2},
            }
            out = tmp_path / str(first)
            p = write_cfg(tmp_path / f"c{first}.json", cfg)
            assert main(["local-law", "--config", p, "--out", str(out)]) == EXIT_OK
            rows[first] = [r for r in (out / "locallaw.csv").read_text().splitlines()
                           if r.startswith("512,")]
        assert len(rows[100]) == 2 * 4
        assert rows[100] == rows[128]

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


class TestSizeStreams:
    """Trial t at size position i draws from the stream (i, t), so the rows of
    the first size do not depend on the sizes after it."""

    @pytest.mark.parametrize("command,cfg,name", [
        ("main-gap", MAIN_GAP, "gap.csv"),
        ("green-sub", GREEN_SUB, "subordination.csv"),
    ])
    def test_first_size_rows_match_a_one_size_run(self, tmp_path, command, cfg, name):
        rows = {}
        for sizes in ([16], [16, 24]):
            sized = amend(dict(cfg, ensemble={"N_values": sizes, "seed": 1}), "grid", trials=2)
            p = write_cfg(tmp_path / f"c{len(sizes)}.json", sized)
            out = tmp_path / f"run{len(sizes)}"
            assert main([command, "--config", p, "--out", str(out)]) == EXIT_OK
            rows[len(sizes)] = (out / name).read_text().splitlines()[1:]
        assert {r.split(",")[0] for r in rows[2]} == {"16", "24"}
        assert [r for r in rows[2] if r.startswith("16,")] == rows[1]


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
            "ssv-tail": {
                "measure": TWO_POINT,
                "ensemble": {"N": 128, "symmetry": "unitary", "seed": 3},
                "grid": {"w_abs": 1.4, "trials": 6},
                "params": {"t_grid": [0.05, 0.1, 0.2]},
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
            ("main-gap", "gap.csv"), ("ssv-tail", "ssv.csv"),
        ]
        for key, (pinned, unpinned) in outputs.items():
            assert pinned == unpinned, key
        # one row per trial and t
        assert len(outputs["ssv-tail", "ssv.csv"][0].splitlines()) == 1 + 6 * 3


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

    def test_fully_flagged_size_leaves_too_few_to_fit(self, tmp_path, capsys):
        # three sizes, but every dev at N = 32 is flagged: two sizes remain to fit
        run = tmp_path / "run"
        run.mkdir()
        rows = [f"{n},{t},1.4,0,0.5,{'nan' if n == 32 else 0.1 * (t + 1)}"
                for n in (16, 32, 64) for t in (0, 1)]
        (run / "locallaw.csv").write_text("N,trial,w_re,w_im,eta,dev\n" + "\n".join(rows) + "\n")
        rep = tmp_path / "rep"
        assert exit_and_stderr(capsys, ["report", str(run), "--out", str(rep)]) == (EXIT_OK, "")
        assert read_csv(rep / "summary.csv") == [
            ["N", "count", "max_dev", "q95_dev"],
            ["16", "2", "0.20000000000000001", "0.19500000000000001"],
            ["32", "2", "nan", "nan"],
            ["64", "2", "0.20000000000000001", "0.19500000000000001"],
        ]

    def test_empty_input_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "rep")]) == EXIT_CONFIG

    def test_missing_csv_exits_2(self, tmp_path):
        empty = tmp_path / "emptyrun"
        empty.mkdir()
        assert main(["report", str(empty), "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    @pytest.mark.parametrize("row,problem", [
        ("16,0,1.4,0,0.5,big", "could not convert string to float: 'big'"),
        ("16,0,1.4,0,0.5", "5 cells for 6 columns"),
    ])
    def test_malformed_row_exits_2(self, tmp_path, capsys, row, problem):
        run = tmp_path / "run"
        run.mkdir()
        (run / "locallaw.csv").write_text(f"N,trial,w_re,w_im,eta,dev\n16,0,1.4,0,1,0.1\n{row}\n")
        code, err = exit_and_stderr(capsys, ["report", str(run), "--out", str(tmp_path / "rep")])
        assert code == EXIT_CONFIG
        assert err == f"invalid config: report: {run / 'locallaw.csv'} line 3: {problem}\n"


class TestBenchmarkConfigs:
    """Every config of the benchmark's workloads passes the parser of the
    command it runs, so a parser change that would stop the benchmark fails
    here first."""

    @pytest.mark.parametrize("seed", [3, 4, 11])
    def test_every_workload_config_validates(self, tmp_path, capsys, monkeypatch, seed):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads  # a plain import registers the module, which its dataclass needs

        calls = [c for make in workloads.WORKLOADS.values() for c in make(seed) if c.config]
        assert len(calls) == 8
        for call in calls:
            p = write_cfg(tmp_path / "c.json", call.config)
            argv = ["validate", "--config", p, "--for-command", call.command]
            assert exit_and_stderr(capsys, argv) == (EXIT_OK, ""), call.label


class TestUsage:
    def test_unknown_command_exits_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x", "--out", "y"])
        assert exc.value.code == EXIT_USAGE

    def test_no_command_exits_64(self, capsys):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_64(self, tmp_path, capsys, threads):
        p = write_cfg(tmp_path / "c.json", {"measure": TWO_POINT})
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["radii", "--config", p, "--out", str(out), f"--threads={threads}"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: singlering radii")
        assert f"argument --threads: need a positive integer, got '{threads}'" in err
        assert not out.exists()

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
        "local-law": LOCAL_LAW,
        "block-law": BLOCK,
        "green-sub": GREEN_SUB,
        "main-gap": MAIN_GAP,
    }

    @pytest.mark.parametrize("command", sorted(RUNNABLE))
    def test_runnable_configs_validate(self, tmp_path, command):
        p = write_cfg(tmp_path / "c.json", self.RUNNABLE[command])
        assert main(["validate", "--config", p, "--for-command", command]) == EXIT_OK

    def test_readme_examples_validate(self, tmp_path, capsys):
        # each `cat > x.json <<'EOF'` config of the README, for the command that reads it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = re.findall(
            r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\nsinglering (\S+) --config \1", readme, re.S
        )
        assert len(examples) == readme.count("<<'EOF'") >= 2
        for name, text, command in examples:
            p = tmp_path / name
            p.write_text(text)
            argv = ["validate", "--config", str(p), "--for-command", command]
            assert exit_and_stderr(capsys, argv) == (EXIT_OK, ""), name

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
