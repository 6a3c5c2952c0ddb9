import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heatseries import cli, experiments
from heatseries.cli import main
from heatseries.experiments import GridGeom, StudyConfig
from heatseries.quad import BLOCK_NODES
from test_golden import SCRIPT as GOLDEN_SCRIPT
from test_golden import assert_is_the_committed_record

ORIGINAL_BUILD = cli.build_parser


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path) as handle:
        return handle.read()


def test_forward_oracle_line_value(tmp_path):
    out = tmp_path / "u.csv"
    code = run_cli(
        "forward", "--geometry", "line", "--variant", "oracle", "--tau", "1",
        "--profile", "gaussian:a=1", "--eval-grid", "0:0:1", "--output", str(out),
    )
    assert code == 0
    last = read(out).strip().splitlines()[-1]
    x, value, flag = last.split(",")
    assert float(value) == pytest.approx(math.sqrt(0.5), rel=1e-9)


def test_forward_oracle_polar_value(tmp_path):
    out = tmp_path / "u.csv"
    code = run_cli(
        "forward", "--geometry", "polar", "--variant", "oracle", "--tau", "1",
        "--profile", "gaussian:a=1", "--eval-grid", "0:0:1", "--output", str(out),
    )
    assert code == 0
    assert float(read(out).strip().splitlines()[-1].split(",")[1]) == pytest.approx(0.5, rel=1e-9)


def test_forward_rejects_zero_tau():
    code = run_cli(
        "forward", "--variant", "CD-A", "--order", "0", "--tau", "0",
        "--profile", "gaussian:a=1", "--eval-grid", "0:0:1",
    )
    assert code == 2


def test_unknown_variant_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "forward", "--variant", "XX-Q", "--tau", "1",
            "--profile", "gaussian:a=1", "--eval-grid", "0:0:1",
        )
    assert exc.value.code == 2
    assert "CD-A" in capsys.readouterr().err  # the valid choices are listed


def test_geometry_variant_mismatch_exits_2():
    code = run_cli(
        "forward", "--geometry", "polar", "--variant", "CD-A", "--tau", "0.5",
        "--beta", "1", "--profile", "gaussian:a=1", "--eval-grid", "0:1:3",
    )
    assert code == 2


def test_round_trip_pipeline(tmp_path):
    u_file = tmp_path / "u.csv"
    f_file = tmp_path / "f.csv"
    assert 0 == run_cli(
        "forward", "--geometry", "line", "--variant", "oracle", "--tau", "0.3",
        "--profile", "gaussian:a=1", "--eval-grid", "-10:10:1601", "--output", str(u_file),
    )
    assert 0 == run_cli(
        "inverse", "--geometry", "line", "--variant", "CI-A", "--tau", "0.3",
        "--beta", "auto", "--order", "40", "--input", str(u_file),
        "--eval-grid", "-3:3:25", "--truth", "gaussian:a=1", "--output", str(f_file),
    )
    text = read(f_file)
    summary = [l for l in text.splitlines() if "summary_rel_l2" in l][0]
    assert float(summary.split("=")[1]) <= 1e-3


def test_noise_zero_and_seed_are_byte_deterministic(tmp_path):
    u_file = tmp_path / "u.csv"
    run_cli(
        "forward", "--variant", "oracle", "--tau", "0.3",
        "--profile", "gaussian:a=1", "--eval-grid", "-8:8:401", "--output", str(u_file),
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert 0 == run_cli(
            "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1.0",
            "--order", "20", "--input", str(u_file), "--noise", "0", "--seed", "33",
            "--eval-grid", "-3:3:13", "--output", str(out),
        )
        outs.append(read(out))
    assert outs[0] == outs[1]


def test_noisy_inverse_deterministic_given_seed(tmp_path):
    u_file = tmp_path / "u.csv"
    run_cli(
        "forward", "--variant", "oracle", "--tau", "0.3",
        "--profile", "gaussian:a=1", "--eval-grid", "-8:8:401", "--output", str(u_file),
    )
    texts = []
    for name in ("a.csv", "b.csv", "c.csv"):
        seed = "33" if name != "c.csv" else "34"
        out = tmp_path / name
        run_cli(
            "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1.0",
            "--order", "12", "--input", str(u_file), "--noise", "1e-3", "--seed", seed,
            "--eval-grid", "-3:3:13", "--output", str(out),
        )
        texts.append(read(out))
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_noise_requires_input():
    code = run_cli(
        "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1",
        "--profile", "gaussian:a=1.3", "--noise", "1e-3",
        "--eval-grid", "-3:3:5",
    )
    assert code == 2


def test_metadata_header_reproduces_run(tmp_path):
    # the header alone is enough to re-run the command and get the same bytes
    out1 = tmp_path / "run1.csv"
    run_cli(
        "forward", "--variant", "CD-A", "--tau", "0.5", "--beta", "auto",
        "--order", "24", "--profile", "gaussian:a=1", "--eval-grid", "-2:2:9",
        "--output", str(out1),
    )
    meta = {}
    for line in read(out1).splitlines():
        if line.startswith("# "):
            key, val = line[2:].split(" = ", 1)
            meta[key] = val
    out2 = tmp_path / "run2.csv"
    run_cli(
        "forward", "--variant", meta["variant"], "--tau", meta["tau"],
        "--beta", meta["beta"], "--order", meta["order"],
        "--profile", meta["profile"], "--eval-grid", meta["eval_grid"],
        "--output", str(out2),
    )
    data1 = [l for l in read(out1).splitlines() if not l.startswith("#")]
    data2 = [l for l in read(out2).splitlines() if not l.startswith("#")]
    assert data1 == data2


def test_json_output_round_trips(tmp_path):
    out = tmp_path / "u.json"
    run_cli(
        "forward", "--variant", "oracle", "--tau", "1", "--profile", "gaussian:a=1",
        "--eval-grid", "-1:1:5", "--format", "json", "--output", str(out),
    )
    payload = json.loads(read(out))
    assert payload["metadata"]["variant"] == "oracle"
    assert len(payload["rows"]) == 5
    mid = payload["rows"][2]
    assert mid["x"] == 0.0
    assert mid["value"] == pytest.approx(math.sqrt(0.5), rel=1e-9)


def test_validate_oracle_mode_exits_zero(tmp_path):
    out = tmp_path / "audit.csv"
    assert 0 == run_cli("validate", "--output", str(out))
    text = read(out)
    assert text.count("pass") >= 48  # 12 variants x 4 orders, plus expected column


def test_validate_literal_mode_expected_failures(tmp_path):
    out = tmp_path / "audit.csv"
    assert 0 == run_cli("validate", "--constants-mode", "paper_literal", "--output", str(out))
    text = read(out)
    for variant in ("CD-C", "CI-C", "PD-C", "PI-C"):
        fail_rows = [l for l in text.splitlines() if l.startswith(variant) and ",fail," in l]
        assert fail_rows, variant
    assert "literal_value_ratios" in text


def test_validate_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("validate", "--output", str(a))
    run_cli("validate", "--output", str(b))
    assert read(a) == read(b)


STUDY_CFG = """
[study]
kind = noise
geometry = line
profile = gaussian:a=1
tau = 0.3
seed = 20250808
variants = CI-A, CI-classical

[grid]
lo = -8
hi = 8
n = 401

[sweep]
orders = 0:24:4
deltas = 0, 1e-3
betas = 0.6
"""


def test_study_runs_and_is_deterministic_mod_runtime(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(STUDY_CFG)
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert 0 == run_cli("study", "--config", str(cfg), "--output", str(out))
        outs.append(read(out))

    def strip_runtime(text):
        rows = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("variant"):
                rows.append(line)
            else:
                rows.append(",".join(line.split(",")[:-1]))
        return rows

    assert strip_runtime(outs[0]) == strip_runtime(outs[1])
    header = [l for l in outs[0].splitlines() if l.startswith("variant")][0]
    assert header == "variant,N,beta,delta,error_l2,error_max,diverged,status,runtime_ms"


def test_study_malformed_config_names_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[study]\nkind = noise\n\n[sweep]\norders = a,b\n")
    code = run_cli("study", "--config", str(cfg))
    assert code == 2
    err = capsys.readouterr().err
    assert ":5:" in err  # the offending line number


def test_study_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[study]\nkind = noise\nwavelength = 3\n")
    assert 2 == run_cli("study", "--config", str(cfg))
    assert "wavelength" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, sweep, fragment",
    [
        ("convergence", "orders = -2, 4", "orders"),
        ("noise", "orders = 0:4:2\ndeltas = -1e-3", "deltas"),
        ("noise", "orders = 0:4:2\ndeltas = 0, nan", "deltas"),
        ("noise", "orders = 0:4:2\ndeltas = inf", "deltas"),
    ],
    ids=["negative-order", "negative-delta", "nan-delta", "inf-delta"],
)
def test_study_rejects_negative_orders_and_bad_deltas(tmp_path, capsys, kind, sweep, fragment):
    # a negative order would sum every term row but the last; a negative
    # delta would flip the noise, which `inverse --noise` rejects
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[study]\nkind = {kind}\n\n[sweep]\n{sweep}\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), str(cfg), fragment)


@pytest.mark.parametrize("value", [" ,", ""], ids=["comma", "blank"])
@pytest.mark.parametrize(
    "text, line_no",
    [
        ("[study]\nkind = noise\nvariants ={value}\n\n[sweep]\norders = 0:4:2\n", 3),
        ("[study]\nkind = noise\n\n[sweep]\norders = 0:4:2\ndeltas ={value}\n", 6),
    ],
    ids=["variants", "deltas"],
)
def test_study_rejects_an_empty_variant_or_delta_list(tmp_path, capsys, text, line_no, value):
    # an empty variants list used to run the study kind's default variants
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.format(value=value))
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), f"{cfg}:{line_no}: empty list")


@pytest.mark.parametrize(
    "study, sweep, fragment",
    [
        ("seed = -1\n", "orders = 0:4:2", "seed"),
        ("", "orders = 0:4:2\nbetas = -1", "betas"),
        ("", "orders = 0:4:2\nbetas = 0", "betas"),
        ("", "orders = 0:4:2\nbetas = 0.6, nan", "betas"),
        ("", "orders = 0:4:2\nbetas = inf", "betas"),
    ],
    ids=["negative-seed", "negative-beta", "zero-beta", "nan-beta", "inf-beta"],
)
def test_study_rejects_negative_seed_and_bad_betas(tmp_path, capsys, study, sweep, fragment):
    # both used to fail mid-run (numpy's generator, KernelParams) without
    # naming the config file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[study]\nkind = noise\n{study}\n[sweep]\n{sweep}\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), str(cfg), fragment)


ORDERS = "orders = 0:4:2"


@pytest.mark.parametrize(
    "study, sweep, fragment",
    [
        ("kind = convergence\nvariants = CI-A", ORDERS, "a convergence study takes direct variants, got CI-A"),
        ("kind = convergence\nvariants = CD-A, CI-classical", ORDERS,
         "a convergence study takes direct variants, got CI-classical"),
        ("kind = noise\nvariants = CD-A", ORDERS, "a noise study takes inverse variants, got CD-A"),
        ("kind = noise\ngeometry = polar\nvariants = PI-A, PD-B", ORDERS,
         "a noise study takes inverse variants, got PD-B"),
        ("kind = classical_compare\nvariants = CI-B", ORDERS,
         "classical_compare runs CI-A and CI-classical, no variants; got ['CI-B']"),
        ("kind = classical_compare\nvariants = CD-A", ORDERS,
         "classical_compare runs CI-A and CI-classical, no variants; got ['CD-A']"),
        ("kind = noise", f"{ORDERS}\nbetas = 0.5, 0.9", "a noise study takes one beta, got [0.5, 0.9]"),
        ("kind = convergence", f"{ORDERS}\nbetas = 0.5, 0.9", "a convergence study takes one beta"),
        ("kind = classical_compare", f"{ORDERS}\nbetas = 0.5, 0.9", "a classical_compare study takes one beta"),
        ("kind = convergence", "orders = 0, 4, 4", "orders (n_range) must not repeat a value, got [0, 4, 4]"),
        ("kind = noise", f"{ORDERS}\ndeltas = 0, 1e-3, 0", "deltas (delta_range) must not repeat a value"),
        ("kind = beta_map", "orders = 8\nbetas = 0.5, 1, 0.5", "betas (beta_range) must not repeat a value"),
        ("kind = noise\nvariants = CI-A, CI-A", ORDERS, "variants must not repeat a value"),
    ],
    ids=["convergence-inverse", "convergence-classical", "noise-direct", "noise-polar-direct",
         "compare-variants", "compare-direct", "noise-two-betas", "convergence-two-betas",
         "compare-two-betas", "repeated-order", "repeated-delta", "repeated-beta", "repeated-variant"],
)
def test_study_rejects_keys_the_study_would_drop_or_misread(tmp_path, capsys, study, sweep, fragment):
    # each used to exit 0: a wrong-direction variant measured against the
    # wrong truth, a classical_compare or noise study ignoring variants or
    # betas, and repeated values repeating rows
    cfg = tmp_path / "dropped.cfg"
    cfg.write_text(f"[study]\ntau = 0.3\n{study}\n\n[sweep]\n{sweep}\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), f"{cfg}: {fragment}")


@pytest.mark.parametrize(
    "study, fragment",
    [
        ("kind = convergence\nconstants_mode = bogus", "constants_mode"),
        ("kind = noise\nconstants_mode = bogus", "constants_mode"),
        ("kind = beta_map\nconstants_mode = bogus", "constants_mode"),
        ("kind = convergence\ntau = -1", "tau must be positive and finite"),
        ("kind = noise\ntau = 0", "tau must be positive and finite"),
        ("kind = noise\ntau = nan", "tau must be positive and finite"),
        ("kind = beta_map\ntau = inf", "tau must be positive and finite"),
    ],
    ids=["mode-convergence", "mode-noise", "mode-beta-map", "negative-tau", "zero-tau", "nan-tau", "inf-tau"],
)
def test_study_rejects_bad_constants_mode_and_tau(tmp_path, capsys, study, fragment):
    # a bogus mode used to run to exit 0 with every row error:ValueError, and
    # a negative tau failed mid-run without naming the config file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[study]\n{study}\n\n[sweep]\norders = 0:4:2\nbetas = 0.5\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), f"{cfg}: ", fragment)


@pytest.mark.parametrize(
    "study",
    [
        "kind = noise",
        "kind = noise\ngeometry = polar",
        "kind = classical_compare",
        "kind = beta_map\nvariants = CI-A",
    ],
    ids=["noise", "noise-polar", "classical-compare", "beta-map-inverse"],
)
def test_study_that_evolves_non_gaussian_data_exits_2(tmp_path, capsys, study):
    # the closed-form evolution of the data exists for Gaussians only; a
    # bump used to escape as a TypeError traceback (exit 1)
    cfg = tmp_path / "bump.cfg"
    cfg.write_text(f"[study]\n{study}\nprofile = bump:radius=1\n\n[sweep]\norders = 0:4:2\nbetas = 0.5\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), "closed-form", "evolution exists only for")


@pytest.mark.parametrize("kind", ["convergence", "noise"])
@pytest.mark.parametrize("geometry", ["", "geometry = polar\n"])
def test_study_config_takes_its_defaults_from_study_config(tmp_path, kind, geometry):
    # the parser passes only the keys the file sets; a [grid] key replaces
    # that one field of the geometry's study grid (a convergence study reads
    # no grid: the key is an error)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"[study]\nkind = {kind}\n{geometry}")
    config = cli._parse_study_config(str(cfg))
    default = StudyConfig(kind, **({"geometry": "polar"} if geometry else {}))
    assert config == default
    cfg.write_text(f"[study]\nkind = {kind}\n{geometry}\n[grid]\nn = 101\n")
    if kind == "noise":
        assert cli._parse_study_config(str(cfg)) == dataclasses.replace(
            default, grid=dataclasses.replace(default.grid, n=101))
    else:
        with pytest.raises(cli.CliError, match=r"reads no seed, deltas or \[grid\] key, got \[grid\] key 'n'") as exc:
            cli._parse_study_config(str(cfg))
        assert exc.value.code == 2


def test_audit_config_reads_kind_and_constants_mode_only(tmp_path):
    # the audit runs its own fixed configurations: its config takes the
    # StudyConfig defaults and, at most, a constants mode
    cfg = tmp_path / "audit.cfg"
    cfg.write_text("[study]\nkind = audit\n")
    assert cli._parse_study_config(str(cfg)) == StudyConfig("audit")
    cfg.write_text("[study]\nkind = audit\nconstants_mode = paper_literal\n\n[grid]\n\n[sweep]\n")
    assert cli._parse_study_config(str(cfg)) == StudyConfig("audit", constants_mode="paper_literal")


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("[study]\nkind = audit\ngeometry = polar\n", ":3: ", "[study] key 'geometry'"),
        ("[study]\nkind = audit\n\n[grid]\nn = 101\n", ":5: ", "[grid] key 'n'"),
        ("[study]\nkind = audit\ntau = 0.5\nvariants = CD-A\nprofile = bump:radius=1\n", ":3: ", "[study] key 'tau'"),
        ("[sweep]\norders = 3\n\n[study]\nconstants_mode = paper_literal\nkind = audit\nwidth = 3\n",
         ":2: ", "[sweep] key 'orders'"),
    ],
    ids=["geometry", "grid", "study-keys", "first-line"],
)
def test_audit_config_rejects_every_other_key(tmp_path, capsys, text, line, key):
    # an audit used to ignore these keys and run the standard audit, exit 0;
    # the first such key by line is named
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(text)
    message = f"{cfg}{line}an audit reads only constants_mode, got {key}\n"
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), message)


@pytest.mark.parametrize(
    "grid, fragment",
    [("hi = inf", "[-8.0, inf]"), ("lo = -inf", "[-inf, 8.0]"), ("lo = nan", "[nan, 8.0]")],
    ids=["inf-hi", "inf-lo", "nan-lo"],
)
@pytest.mark.parametrize("kind", ["noise", "convergence"])
def test_study_grid_bounds_must_be_finite(tmp_path, capsys, grid, fragment, kind):
    # `hi = inf` used to run to exit 0 with every row error:ValueError after a
    # RuntimeWarning from np.linspace; a convergence study reads no grid, and
    # names the key it would drop
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"[study]\nkind = {kind}\n\n[grid]\n{grid}\n")
    if kind == "noise":
        expected = (f"{cfg}: bad grid geometry {fragment}", "finite")
    else:
        expected = (f"{cfg}:5: a convergence study reads no seed, deltas or [grid] key, "
                    f"got [grid] key {grid.split()[0]!r}\n",)
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), *expected)


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("[study]\nkind = {kind}\ntau = 0.5\nseed = 3\n", 4, "[study] key 'seed'"),
        ("[study]\nkind = {kind}\n\n[sweep]\norders = 4\ndeltas = 0.5\nbetas = 0.5\n", 6, "[sweep] key 'deltas'"),
        ("[study]\nkind = {kind}\n\n[grid]\nlo = -1\nhi = 1\nn = 3\n", 5, "[grid] key 'lo'"),
        ("[study]\nkind = {kind}\n\n[sweep]\nbetas = 0.5\n\n[grid]\nn = 101\n\n[study]\nseed = 3\n", 8,
         "[grid] key 'n'"),
    ],
    ids=["seed", "deltas", "grid", "first-line"],
)
@pytest.mark.parametrize("kind", ["convergence", "beta_map"])
def test_a_study_of_analytic_data_rejects_the_sampling_keys(tmp_path, capsys, kind, text, line, key):
    # a convergence study and a beta map solve from the analytic profile; a
    # seed, deltas or [grid] key used to be echoed in the metadata and
    # dropped, exit 0; the first such key by line is named
    cfg = tmp_path / "study.cfg"
    cfg.write_text(text.format(kind=kind))
    message = f"{cfg}:{line}: a {kind} study reads no seed, deltas or [grid] key, got {key}\n"
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), message)


def test_the_config_key_table_sets_every_study_config_field_once():
    # one row per key: a [grid] key sets a GridGeom field, any other key a
    # StudyConfig field, and every field but study_kind (from [study] kind)
    # and grid (from the [grid] keys) is set by exactly one key
    study_fields = [f.name for f in dataclasses.fields(StudyConfig)]
    grid_fields = [f.name for f in dataclasses.fields(GridGeom)]
    keys = [(section, key) for section, key, _, _ in cli._CONFIG_KEYS]
    assert len(set(keys)) == len(keys)
    set_grid = [name for section, _, name, _ in cli._CONFIG_KEYS if section == "grid"]
    set_study = [name for section, _, name, _ in cli._CONFIG_KEYS if section != "grid"]
    assert sorted(set_grid) == sorted(grid_fields)
    assert sorted(set_study + ["grid"]) == sorted(name for name in study_fields if name != "study_kind")
    for drops, _ in experiments.STUDY_DROPS.values():
        assert set(drops) <= set(study_fields) - {"study_kind"}


@pytest.mark.parametrize(
    "text, message",
    [
        ("[study]\nkind = noise\ntau = 0.3\ntau = 0.5\n", ":4: [study] key 'tau' repeats line 3\n"),
        ("[study]\nkind = noise\nkind = audit\n", ":3: [study] key 'kind' repeats line 2\n"),
        ("[study]\nkind = noise\n\n[sweep]\norders = 4\n\n[study]\nseed = 1\n\n[sweep]\norders = 8\n",
         ":11: [sweep] key 'orders' repeats line 5\n"),
    ],
    ids=["tau", "kind", "second-section-marker"],
)
def test_a_repeated_key_names_both_lines(tmp_path, capsys, text, message):
    # the last value used to win, exit 0, and the first was dropped unseen
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text(text)
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), f"{cfg}{message}")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("seed = 1.5", 3, "seed must be an integer, got '1.5'"),
        ("[grid]\nn = 2.5", 4, "n must be an integer, got '2.5'"),
        ("[sweep]\norders = 0, 1.5", 4, "non-integer value '1.5'"),
        ("[sweep]\norders = 0:4:0.5", 4, "non-integer range '0:4:0.5'"),
        ("[sweep]\nbetas = 0.5, wide", 4, "non-numeric value 'wide'"),
        ("tau = soon", 3, "tau must be numeric, got 'soon'"),
    ],
    ids=["seed", "grid-n", "orders", "orders-range", "betas", "tau"],
)
def test_an_integer_key_asks_for_an_integer(tmp_path, capsys, text, line, message):
    # a float given for an integer key used to read "must be numeric" or
    # "non-numeric value", though it is a number
    cfg = tmp_path / "word.cfg"
    cfg.write_text(f"[study]\nkind = noise\n{text}\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), f"{cfg}:{line}: {message}\n")


@pytest.mark.parametrize(
    "study, message",
    [
        ("tau = -1", "tau must be positive and finite, got -1.0"),
        ("geometry = sphere", "geometry must be 'line' or 'polar'"),
    ],
    ids=["tau", "geometry"],
)
def test_a_config_fault_is_named_before_the_grid_it_completes(tmp_path, capsys, study, message):
    # a partial [grid] completes the grid of the StudyConfig the other keys
    # make, so that config's checks come first; a geometry that does not
    # exist used to be named a polar grid's fault
    cfg = tmp_path / "two.cfg"
    cfg.write_text(f"[study]\nkind = noise\n{study}\n\n[grid]\nn = 1\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), f"{cfg}: {message}\n")


def test_study_on_a_grid_too_wide_for_the_data_reports_overflow_rows(tmp_path, capsys):
    # the evolved Gaussian is 0 far out, without an overflow warning; the
    # moment passes over a window of width 2e300 overflow at orders 2 and 4,
    # and so do the finite differences at a spacing of 5e297 (order 0 is the
    # sample at 0); CI-A's order-0 pass builds, but its values are so large
    # that the error overflows, without a warning either
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[study]\nkind = noise\ntau = 0.3\n\n[grid]\nlo = -1e300\nhi = 1e300\n\n[sweep]\norders = 0:4:2\n")
    assert run_cli("study", "--config", str(cfg)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines() if not line.startswith(("#", "variant,"))]
    assert [(row[0], row[1], row[7]) for row in rows[::2]] == [
        ("CI-A", "0", "error:nonfinite"), ("CI-A", "2", "error:OverflowError"),
        ("CI-A", "4", "error:OverflowError"), ("CI-classical", "0", "ok"),
        ("CI-classical", "2", "error:OverflowError"), ("CI-classical", "4", "error:OverflowError"),
    ]
    assert [row[7] for row in rows[1::2]] == [row[7] for row in rows[::2]]  # delta 1e-3 alike
    assert rows[0][4] == rows[1][4] == "inf"


def test_study_whose_errors_overflow_reports_nonfinite_rows_without_a_warning(tmp_path, capsys):
    # at order 0 CI-A's pass over the 2e300-wide grid builds, and its values
    # are so large that the error norms overflow: inf, not a RuntimeWarning
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[study]\nkind = noise\ntau = 0.3\n\n[grid]\nlo = -1e300\nhi = 1e300\n\n[sweep]\norders = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("study", "--config", str(cfg)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines() if not line.startswith(("#", "variant,"))]
    assert [(row[0], row[1], row[4], row[7]) for row in rows] == [
        ("CI-A", "0", "inf", "error:nonfinite"), ("CI-A", "0", "inf", "error:nonfinite"),
        ("CI-classical", "0", "0.67454332410805951", "ok"), ("CI-classical", "0", "0.67366814016758902", "ok"),
    ]


def test_study_float_range_is_not_accumulated():
    # lo + k step: no drift, and hi is kept when it is a whole number of steps
    betas = cli._parse_number_list("0.5:1.5:0.1", 1, "x.cfg")
    assert len(betas) == 11 and betas[0] == 0.5 and betas[-1] == 1.5
    assert betas == tuple(0.5 + k * 0.1 for k in range(11))
    for k, beta in enumerate(betas):
        assert abs(beta - (5 + k) / 10) <= math.ulp((5 + k) / 10)
    assert cli._parse_number_list("0:1:0.3", 1, "x.cfg") == (0.0, 0.3, 0.6, 0.3 * 3)
    assert cli._parse_number_list("0.25:0.25:0.5", 1, "x.cfg") == (0.25,)
    # integer ranges are unchanged
    assert cli._parse_number_list("0:12:5", 1, "x.cfg", integer=True) == (0, 5, 10)
    assert cli._parse_number_list("0:12:4", 1, "x.cfg", integer=True) == (0, 4, 8, 12)
    for bad in ("0:1:0", "1:0:0.1", "0:inf:0.1", "0:1:nan"):
        with pytest.raises(cli.CliError, match="bad range"):
            cli._parse_number_list(bad, 1, "x.cfg")


def test_study_rejects_constants_mode_flag(tmp_path, capsys):
    # the config's constants_mode key is the one place to set a study's mode
    cfg = tmp_path / "study.cfg"
    cfg.write_text(STUDY_CFG)
    with pytest.raises(SystemExit) as info:
        run_cli("study", "--config", str(cfg), "--constants-mode", "paper_literal")
    assert info.value.code == 2
    assert "--constants-mode" in capsys.readouterr().err


def test_study_closes_its_config_file(tmp_path, monkeypatch, capsys):
    # a leaked handle warns when it is collected; under "error" that warning
    # is raised inside the finaliser and lands in sys.unraisablehook
    cfg = tmp_path / "study.cfg"
    cfg.write_text(STUDY_CFG)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert 0 == run_cli("study", "--config", str(cfg))
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []


def test_input_rejects_nonuniform_grid(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("0,1\n0.5,2\n2.0,3\n")
    code = run_cli(
        "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1",
        "--input", str(data), "--eval-grid", "0:1:3",
    )
    assert code == 2


# --- bad input fails at the boundary with exit 2 ----------------------------------

def evolved_samples(tmp_path, replace_row=None):
    """Gaussian a=1 evolved to tau=0.3 on -10:10:401; replace_row = (x, text)."""
    path = tmp_path / "u.csv"
    assert 0 == run_cli(
        "forward", "--variant", "oracle", "--tau", "0.3", "--profile", "gaussian:a=1",
        "--eval-grid", "-10:10:401", "--output", str(path),
    )
    if replace_row is not None:
        x, text = replace_row
        lines = read(path).splitlines()
        row = next(i for i, l in enumerate(lines) if l.split(",")[0] == x)
        lines[row] = text
        path.write_text("\n".join(lines) + "\n")
    return path


def assert_rejected(capsys, code, *fragments):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    for fragment in fragments:
        assert fragment in captured.err


def test_ci_classical_of_a_bump_is_rejected(capsys):
    code = run_cli(
        "inverse", "--variant", "CI-classical", "--tau", "0.3", "--order", "4",
        "--profile", "bump:radius=1", "--eval-grid", "0:1:2",
    )
    assert_rejected(capsys, code, "analytic derivatives are available for Gaussian data only")


def test_input_row_with_non_numeric_value_is_rejected(tmp_path, capsys):
    # the row used to be dropped after its x was kept, shifting every later
    # sample; CI-A at x = 0 then printed 0.977 with exit 0
    path = evolved_samples(tmp_path, ("-5", "-5,abc"))
    code = run_cli(
        "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "auto",
        "--input", str(path), "--eval-grid", "0:0:1",
    )
    assert_rejected(capsys, code, "non-numeric sample")


def test_input_nan_sample_rejected_with_auto_beta(tmp_path, capsys):
    path = evolved_samples(tmp_path, ("0", "0,nan"))
    code = run_cli(
        "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "auto",
        "--input", str(path), "--eval-grid", "0:0:1",
    )
    assert_rejected(capsys, code, "non-finite sample")


def test_input_nan_sample_rejected_with_explicit_beta(tmp_path, capsys):
    # used to refine the quadrature to 4096 panels and exit 3
    path = evolved_samples(tmp_path, ("0", "0,nan"))
    code = run_cli(
        "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1",
        "--input", str(path), "--eval-grid", "0:0:1",
    )
    assert_rejected(capsys, code, "non-finite sample")


def forward_cd_a(*extra):
    """A small CD-A forward solve with some flags replaced."""
    args = {"--variant": "CD-A", "--tau": "0.5", "--beta": "1", "--order": "10", "--eval-grid": "0:1:3"}
    args.update(zip(extra[::2], extra[1::2]))
    argv = ["forward", "--profile", "gaussian:a=1"]
    for flag, value in args.items():
        argv += [flag, value]
    return run_cli(*argv)


def test_negative_order_rejected(capsys):
    assert_rejected(capsys, forward_cd_a("--order", "-3"), "--order")


def test_infinite_tau_rejected_on_series_variant(capsys):
    assert_rejected(capsys, forward_cd_a("--tau", "inf"), "--tau")


def test_infinite_tau_rejected_on_oracle(capsys):
    # used to print 0 with exit 0
    assert_rejected(capsys, forward_cd_a("--variant", "oracle", "--tau", "inf"), "--tau")


def test_nan_beta_rejected(capsys):
    assert_rejected(capsys, forward_cd_a("--beta", "nan"), "--beta")


def test_nan_noise_rejected(tmp_path, capsys):
    path = evolved_samples(tmp_path)
    code = run_cli(
        "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1", "--input", str(path),
        "--noise", "nan", "--eval-grid", "0:0:1",
    )
    assert_rejected(capsys, code, "--noise")


def test_noise_that_overflows_the_samples_rejected(tmp_path, capsys):
    # the noisy samples used to reach the scale estimate, which read them as
    # zero mass, after a RuntimeWarning from the noise
    path = evolved_samples(tmp_path)
    capsys.readouterr()
    code = run_cli(
        "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "auto", "--input", str(path),
        "--noise", "1e308", "--eval-grid=-1:1:3",
    )
    assert_rejected(capsys, code, "--noise 1e+308 overflows the samples")


def test_noise_study_whose_noise_overflows_keeps_its_error_rows(tmp_path, capsys):
    # the noise is computed without a warning; the samples it overflows give
    # error rows, as every other failed solve of a study
    cfg = tmp_path / "loud.cfg"
    cfg.write_text("[study]\nkind = noise\ntau = 0.3\n\n[sweep]\norders = 0, 4\ndeltas = 0, 1e308\n")
    assert run_cli("study", "--config", str(cfg)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines() if not line.startswith(("#", "variant,"))]
    assert [(row[0], row[1], row[3], row[7]) for row in rows] == [
        ("CI-A", "0", "0", "ok"), ("CI-A", "0", "1e+308", "error:OverflowError"),
        ("CI-A", "4", "0", "ok"), ("CI-A", "4", "1e+308", "error:OverflowError"),
        ("CI-classical", "0", "0", "ok"), ("CI-classical", "0", "1e+308", "error:nonfinite"),
        ("CI-classical", "4", "0", "ok"), ("CI-classical", "4", "1e+308", "error:OverflowError"),
    ]


def test_library_value_error_exits_2(capsys):
    # PI-B's own precondition, raised inside the library
    code = run_cli(
        "inverse", "--geometry", "polar", "--variant", "PI-B", "--tau", "0.3", "--beta", "0.2",
        "--profile", "gaussian:a=1.3", "--eval-grid", "0:1:3",
    )
    assert_rejected(capsys, code, "requires beta > tau")


def test_infinite_eval_grid_rejected(capsys):
    assert_rejected(capsys, forward_cd_a("--eval-grid", "0:inf:3"), "--eval-grid")


def test_eval_grid_whose_span_overflows_rejected(capsys):
    # finite bounds 2e308 apart: np.linspace warned and made NaN points
    assert_rejected(capsys, forward_cd_a("--eval-grid", "-1e308:1e308:3"), "--eval-grid span hi - lo must be finite")


def test_eval_grid_whose_term_matrix_exceeds_the_budget_rejected(capsys):
    # 1e11 points used to reach np.linspace and end in numpy's memory error
    # for 745 GiB; the budget rejects it before any array is made
    code = run_cli(
        "forward", "--variant", "CD-A", "--tau", "0.5", "--beta", "1", "--order", "4",
        "--eval-grid=0:1:100000000000", "--profile", "gaussian:a=1",
    )
    assert_rejected(capsys, code, "100000000000 points", "order 4", str(cli.MAX_TERMS))


@pytest.mark.parametrize("command, variant, beta", [
    ("forward", "oracle", "7"),
    ("inverse", "CI-classical", "2"),
    ("inverse", "CI-classical", "auto"),
])
def test_a_shift_on_a_variant_without_one_rejected(capsys, command, variant, beta):
    # the oracle and CI-classical have no shift: a --beta used to be echoed
    # as beta_requested while the solve ran at beta = 0
    code = run_cli(
        command, "--variant", variant, "--tau", "0.5", "--beta", beta, "--profile", "gaussian:a=1",
        "--eval-grid", "0:1:2",
    )
    assert_rejected(capsys, code, f"{variant} has no shift parameter", repr(beta))


@pytest.mark.parametrize("order", ["4096", "100000"])
def test_order_whose_moment_pass_exceeds_the_budget_rejected(capsys, order):
    # a Bump's moment pass holds (order + 1) x BLOCK_NODES values a block:
    # order 100000 used to take 324 MB before the overflow's exit 3
    code = run_cli(
        "forward", "--variant", "CD-A", "--tau", "0.5", "--beta", "1", "--order", order,
        "--profile", "bump:radius=1", "--eval-grid", "0:0:1",
    )
    assert_rejected(capsys, code, f"--order {order}", str(experiments.MAX_ORDER), str(cli.MAX_TERMS))


def test_the_order_budget_is_the_moment_pass_and_the_plane_c_table():
    assert cli.MAX_TERMS is experiments.MAX_TERMS and cli.MAX_ORDER is experiments.MAX_ORDER
    order = experiments.MAX_ORDER
    assert (order + 1) * BLOCK_NODES <= cli.MAX_TERMS and (order + 1) ** 2 <= cli.MAX_TERMS
    assert (order + 2) * BLOCK_NODES > cli.MAX_TERMS or (order + 2) ** 2 > cli.MAX_TERMS


def test_highest_budgeted_order_is_not_refused(capsys):
    # order MAX_ORDER passes the budget and fails numerically, at once
    code = run_cli(
        "forward", "--variant", "CD-A", "--tau", "0.5", "--beta", "1", "--order", str(experiments.MAX_ORDER),
        "--profile", "bump:radius=1", "--eval-grid", "0:0:1",
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and "overflow" in captured.err


@pytest.mark.parametrize("orders", ["100000", "0, 4096"])
def test_study_order_over_the_budget_rejected(tmp_path, capsys, orders):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"[study]\nkind = convergence\ntau = 0.5\n\n[sweep]\norders = {orders}\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), str(cfg), "orders (n_range)",
                    f"at most {experiments.MAX_ORDER}", f"got {orders.split(', ')[-1]}")
    with pytest.raises(ValueError, match="orders"):
        StudyConfig(study_kind="noise", n_range=(0, experiments.MAX_ORDER + 1))


def test_study_grid_over_the_budget_rejected(tmp_path, capsys, monkeypatch):
    # refused before any sampling: 92 bytes a node would make 1e8 nodes some 9 GB
    n = experiments.MAX_TERMS + 1
    monkeypatch.setattr(cli, "run_study", lambda config: pytest.fail("the study ran"))
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"[study]\nkind = noise\ntau = 0.3\n\n[grid]\nn = {n}\n\n[sweep]\norders = 0\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), str(cfg), f"n = {n}", str(cli.MAX_TERMS))
    with pytest.raises(ValueError, match="grid"):
        StudyConfig(study_kind="noise", grid=GridGeom(-8.0, 8.0, n))
    assert StudyConfig(study_kind="noise", grid=GridGeom(-8.0, 8.0, n - 1)).grid.n == n - 1


@pytest.mark.parametrize("variants", ["XX-Q", "PD-A"])
def test_study_variant_outside_geometry_rejected(tmp_path, capsys, variants):
    # an unknown name used to escape as a KeyError traceback from the sweep
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[study]\nkind = noise\ngeometry = line\nvariants = {variants}\n")
    assert_rejected(capsys, run_cli("study", "--config", str(cfg)), variants)


# --- one parser per process -------------------------------------------------------

def test_cached_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys, monkeypatch):
    path = str(evolved_samples(tmp_path))
    capsys.readouterr()
    inverse = ("inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "auto", "--order", "8",
               "--input", path, "--eval-grid", "-1:1:5")
    calls = [
        inverse + ("--noise", "1e-3", "--seed", "5", "--truth", "gaussian:a=1"),
        inverse,
        inverse + ("--bogus",),  # rejected by argparse
        ("forward", "--variant", "CD-A", "--tau", "0.5", "--beta", "1", "--profile", "gaussian:a=1",
         "--eval-grid", "-1:1:5"),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or ORIGINAL_BUILD())
    cli._parser.cache_clear()
    in_sequence = [run(argv) for argv in calls]
    assert len(built) == 1
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(argv))
    cli._parser.cache_clear()
    assert in_sequence == alone
    assert [c for c, _, _ in in_sequence] == [0, 0, ("SystemExit", 2), 0]
    plain = in_sequence[1][1]
    assert "# noise = \n" in plain and "# seed = 0\n" in plain and "summary_rel_l2" not in plain


# --- field rows -------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True), flag=st.booleans())
def test_row_format_is_the_text_of_fmt(x, flag):
    assert "%.17g,%.17g,%d" % (x, -x, flag) == ",".join(cli._fmt(v) for v in (x, -x, flag))


STUDY_ROWS = [
    ("CI-A", 0, 0.6, 0.0, 0.25, 1.5, False, "ok", 3.25),
    ("CI-classical", 12, 0.0, 1e-3, float("nan"), float("nan"), True, "error:ValueError", 0.0),
    ("PI-B", 40, 0.2, 1e-4, float("inf"), -float("inf"), True, "error:nonfinite", 1e-300),
    ("CD-C", 400, 1.0, 1e300, 5e-324, -0.0, False, "error:OverflowError", 12.000000000000002),
]


@pytest.mark.parametrize("row_format, rows", [
    (cli._STUDY_ROW, STUDY_ROWS),
    (cli._VALIDATE_ROW, [(v, n, beta, err, status, "pass") for v, n, beta, _, err, _, _, status, _ in STUDY_ROWS]),
], ids=["study", "validate"])
def test_table_templates_are_the_text_of_fmt(row_format, rows):
    # nan and inf errors, error:* statuses, integer orders and bool flags
    metadata, header = {"command": "study", "tau": 0.3}, ["h"] * len(rows[0])
    expected = "".join(f"# {k} = {cli._fmt(v)}\n" for k, v in metadata.items()) + ",".join(header) + "\n"
    expected += "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
    assert cli._render_csv(metadata, header, rows, row_format) == expected
    assert cli._render_csv(metadata, header, [], row_format) == expected.split("h\n")[0] + "h\n"


def json_dumps_rows(metadata, header, rows):
    """The JSON output as json.dumps writes it, which _render_json's template
    must give byte for byte."""
    payload = {"metadata": metadata, "rows": [dict(zip(header, row)) for row in rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


JSON_ROWS = [
    (0.5, True, 3, "a", -0.0),
    (float("nan"), False, -7, "b\n\u00e9\"", 1e-300),
    (float("inf"), True, 0, "", -1e-300),
    (-float("inf"), False, 10 ** 20, "x,y", 5e-324),
    (1e300, 1, 2.0, None, 0.1),  # a column of mixed types
]
JSON_METADATA = {"command": "forward", "tau": 0.5, "beta": float("nan"), "order": 40, "flag": True,
                 "beta_requested": "", "tolerances": '{"exact": 1e-09}', "none": None, "nested": {"b": [1, 2.5], "a": {}}}


@pytest.mark.parametrize(
    "metadata, header, rows",
    [
        (JSON_METADATA, ["x", "diverged", "n", "name", "value"], JSON_ROWS),
        ({}, ["value", "x", "diverged"], [(r[4], r[0], r[1]) for r in JSON_ROWS]),  # keys out of order
        ({"k": 1}, ["a", "b", "a"], [(1, 2, 3), (4.5, -0.0, "z")]),  # a repeated key keeps its last value
        ({"k": 1}, ["x"], []),
        ({}, [], [(), ()]),
        ({"k": [1, {"q": 2}]}, ["x", "v"], [(1.5, [1, {"q": 2}]), (2.5, {"z": [], "a": 1})]),
    ],
)
def test_json_rows_from_the_template_are_json_dumps_byte_for_byte(metadata, header, rows):
    assert cli._render_json(metadata, header, rows) == json_dumps_rows(metadata, header, rows)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                               st.one_of(st.floats(), st.booleans(), st.integers()), st.booleans()), max_size=6))
def test_json_float_columns_are_json_dumps_byte_for_byte(rows):
    assert cli._render_json({"a": 1.0}, ["x", "value", "diverged"], rows) == json_dumps_rows(
        {"a": 1.0}, ["x", "value", "diverged"], rows)


# --- sample files -----------------------------------------------------------------

JUNK_ROWS = [
    "", "   ", "\t", "# a comment", "x,value", "abc,def", "1", "1;2", "nan,1", "1,inf", "-inf,0",
    "1,2#c", " ,2", "1,", "1_0,2", "1\x1c,2", "\xa01,2", "١,2", "0x1,2", "1,2,3,4", "1e400,1",
]
NUMBER_FORMATS = ["%.17g", "%r", "%.3e", "%+.6f", " %s ", "%.17g\t"]


@st.composite
def sample_files(draw):
    """Sample file text: a prelude of comments, blanks and headers, then rows
    on a grid (sometimes decreasing, uneven or short) with decorated fields
    and junk rows mixed in."""
    n = draw(st.integers(0, 30))
    lo = draw(st.sampled_from([-4.0, -1.5, 0.0, 0.3]))
    step = draw(st.sampled_from([0.25, 0.1, 1.0 / 3.0, 1e-3]))
    xs = [lo + i * step for i in range(n)]
    if draw(st.booleans()):
        xs.reverse()
    if n > 3 and draw(st.integers(0, 4)) == 0:
        xs[n // 2] += step / 3.0
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    fmt = draw(st.sampled_from(NUMBER_FORMATS))
    pad = draw(st.sampled_from(["", " ", "\t", "  "]))
    extra = draw(st.sampled_from(["", ",", ",abc", ",1,2", ",nan"]))
    rows = [f"{pad}{fmt % x},{fmt % v}{extra}{pad}" for x, v in zip(xs, values)]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(JUNK_ROWS)))
    prelude = draw(st.lists(st.sampled_from(["# written by hand", "x,value", "", "r , u", "x,value,note"]), max_size=3))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(prelude + rows) + (newline if draw(st.booleans()) else "")


@pytest.mark.parametrize("junk", JUNK_ROWS)
@pytest.mark.parametrize("where", [0, 1, 20, 41])
def test_every_junk_row_reads_as_the_line_loop_reads_it(tmp_path, monkeypatch, junk, where):
    rows = [f"{x:.17g},{math.exp(-x * x / 4.0):.17g}" for x in (-4.0 + 0.2 * i for i in range(41))]
    rows.insert(where, junk)
    path = tmp_path / "u.csv"
    path.write_text("# header\nx,value\n" + "\n".join(rows) + "\n")
    fast = read_outcome(str(path))
    monkeypatch.setattr(cli, "_sample_table", lambda _: None)
    assert fast == read_outcome(str(path))


def read_outcome(path):
    """The Sampled1D a reader returns, or the CliError it raises."""
    try:
        data = cli._read_sampled(path)
    except cli.CliError as exc:
        return str(exc)
    return data.lo, data.hi, data.values.tobytes()


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=sample_files())
def test_sample_files_read_as_the_line_loop_reads_them(tmp_path, monkeypatch, capsys, text):
    path = tmp_path / "u.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    fast = read_outcome(str(path))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_sample_table", lambda _: None)  # the line loop alone
        loop = read_outcome(str(path))
    assert fast == loop
    capsys.readouterr()
    code = run_cli(
        "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1", "--order", "4",
        "--input", str(path), "--eval-grid", "0:0:1",
    )
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if isinstance(loop, str):
        assert err == f"heatseries inverse: {loop}\n"


def test_an_undecodable_sample_file_is_named(tmp_path, capsys):
    # the byte sits past the first 8 KiB, behind a bad row: the file is named,
    # with the byte's offset from its start, and the bad row is not reached
    path = tmp_path / "u.csv"
    rows = "".join(f"{0.01 * i:.17g},1\n" for i in range(2000)).encode("ascii")
    path.write_bytes(b"x,value\n0,1\nbad,row\n" + rows[:20000 - 20] + b"\xff" + rows[20000 - 20:])
    code = run_cli("inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1", "--input", str(path),
                   "--eval-grid", "0:0:1")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"heatseries inverse: cannot read {path}: 'utf-8' codec can't decode byte 0xff in "
                            "position 20000: invalid start byte\n")


def test_an_undecodable_study_config_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[study]\nkind = noise\n# caf\xe9\n")
    code = run_cli("study", "--config", str(cfg))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"heatseries study: cannot read {cfg}: 'utf-8' codec can't decode byte 0xe9 in "
                            "position 26: invalid continuation byte\n")


@pytest.mark.parametrize("command, geometry, variant, lo", [
    ("forward", "polar", "PD-A", 0.0),
    ("inverse", "polar", "PI-A", 0.0),
    ("forward", "line", "CD-A", -1e300),
    ("inverse", "line", "CI-A", -1e300),
])
def test_an_overflow_of_sampled_moments_names_the_commands_order(tmp_path, capsys, command, geometry, variant, lo):
    # 401 nodes of e^{-x^2/5.2} up to 1e300: the moment rows overflow, and
    # the message names order 40, not the order its rows run to (the plane's
    # W rows to 41, the line's Hermite rows to 42)
    path = tmp_path / "wide.csv"
    nodes = np.linspace(lo, 1e300, 401)
    with np.errstate(over="ignore"):
        values = np.exp(-nodes ** 2 / 5.2)
    path.write_text("".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(nodes, values)))
    code = run_cli(command, "--geometry", geometry, "--variant", variant, "--tau", "0.5", "--beta", "1",
                   "--order", "40", "--input", str(path), "--eval-grid", "0:1:2")
    err = capsys.readouterr().err
    assert code == 3
    assert "not finite at order 40" in err and "order 41" not in err and "order 42" not in err


# the environment of a UTF-8 locale, and of the C locale with Python's UTF-8
# mode and locale coercion off: there the locale's encoding is ASCII
LOCALES = {
    "utf-8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
    "C": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
}
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_under(locale, argv, cwd):
    """(exit code, stdout bytes) of `python argv` under one of LOCALES, the package's src on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONCOERCE"))}
    env.update(LOCALES[locale], PYTHONPATH=os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, timeout=300)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode("utf-8", "replace")
    return proc.returncode, proc.stdout


def test_files_with_utf8_comments_read_alike_under_any_locale(tmp_path):
    # a sample file and a study config whose comment rows are UTF-8, read
    # and reported (to stdout and through --output) under a UTF-8 locale and
    # under the C locale, whose ASCII encoding cannot decode them; the sample
    # file's name, echoed in the report, is not ASCII either
    code, encoding = run_under("C", ["-c", "import locale; print(locale.getpreferredencoding(False))"], tmp_path)
    assert code == 0 and encoding.strip().decode() not in ("UTF-8", "utf-8")
    xs = np.linspace(-4.0, 4.0, 81)
    rows = "".join(f"{x:.17g},{math.exp(-x * x / 5.2):.17g}\n" for x in xs)
    (tmp_path / "r\u00e9sum\u00e9.csv").write_bytes("# r\u00e9sum\u00e9 of the run\nx,value\n".encode() + rows.encode())
    (tmp_path / "s.cfg").write_bytes("[study]\n# caf\u00e9 \u2014 a comment\nkind = noise\ntau = 0.3\n\n"
                                     "[grid]\nn = 41\n\n[sweep]\norders = 0, 4\n".encode())
    solve = ["-m", "heatseries.cli", "inverse", "--variant", "CI-A", "--tau", "0.3", "--beta", "1", "--order", "8",
             "--input", "r\u00e9sum\u00e9.csv", "--eval-grid", "0:1:3"]
    study = ["-m", "heatseries.cli", "study", "--config", "s.cfg"]
    out = {}
    for locale in LOCALES:
        out[locale, "solve"] = run_under(locale, solve, tmp_path)
        out[locale, "study"] = run_under(locale, study, tmp_path)
        written = tmp_path / f"{locale}.csv"
        code, _ = run_under(locale, solve + ["--output", written.name], tmp_path)
        out[locale, "output"] = code, written.read_bytes() if code == 0 else b""
    assert "# input = r\u00e9sum\u00e9.csv".encode() in out["utf-8", "solve"][1]
    assert out["utf-8", "output"] == out["utf-8", "solve"]
    for what in ("solve", "study", "output"):
        (code, text), (utf8_code, utf8) = out["C", what], out["utf-8", what]
        if what == "study":  # the runtime_ms column is wall-clock time
            text, utf8 = (re.sub(rb",[^,\n]*$", b",*", t, flags=re.M) for t in (text, utf8))
            assert b",ok," in text and b"error:" not in text
        assert (code, text) == (utf8_code, utf8) and code == 0


def test_the_golden_record_is_the_same_under_the_c_locale(tmp_path):
    # every golden command, run under the C locale, whose encoding is not
    # UTF-8, gives the committed record byte for byte
    code, _ = run_under("C", [str(GOLDEN_SCRIPT), "record.jsonl"], tmp_path)
    assert code == 0
    assert_is_the_committed_record(tmp_path / "record.jsonl")
