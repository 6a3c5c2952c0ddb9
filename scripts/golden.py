"""Golden CLI outputs: run a fixed command list through `heatseries.cli.main`
in-process and record the stdout, stderr and exit code of each command.

    python3 scripts/golden.py tests/golden/record.jsonl   # re-record, with the src/ next to this script
    python3 scripts/golden.py --compare A.jsonl B.jsonl

The list, some 380 commands, holds the perfbench commands; forward/inverse
of every series variant, CI-classical and both oracles in both constants
modes, as CSV and JSON, on analytic, evolved and sampled data (some at
order 40, some on 16 001-node files); data whose moments take the adaptive
quadrature; one file for each path of the sample-file reader; overflow
(exit 3) and configuration (exit 2) cases, a zero truth and an unwritable
--output among them; `validate` in both modes; study configs of every
kind, the shipped ones included; and malformed study configs and study
flags (exit 2).

Commands run in a fresh temporary directory that holds their input files,
so every path they echo is relative and a record does not depend on where
the checkout lives.  A command that writes --output has that file recorded
too.  The runtime_ms column of study reports is wall-clock time and is
masked.  The record is JSON lines: first the host the bits depend on
(`bench_pair.machine`'s HOST fields), then one record per command, sorted
by name, so `git diff` of the committed tests/golden/record.jsonl shows
what moved; tests/test_golden.py re-records it.  --compare lists the
commands whose records differ and exits 1 if any does; where two records
differ in numeric tokens only, it adds how many numbers differ and the
largest absolute and relative difference.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "scripts")]

import reference as ref  # noqa: E402  perfbench's closed-form evolutions and sample writer
import workloads  # noqa: E402
from bench_pair import machine  # noqa: E402

from heatseries import cli  # noqa: E402

MODES = ("oracle_validated", "paper_literal")
NOISE_SEED = 1
MIX, PMIX, GAUSS = workloads.MIX, workloads.PMIX, workloads.GAUSS
# the host facts a record's bits depend on: not the kernel release or the CPU count
HOST = ("machine", "cpu_model", "python", "numpy", "blas", "simd")

STUDY_CONFIGS = {
    "noise_polar_default.cfg": "[study]\nkind = noise\ngeometry = polar\ntau = 0.3\n\n[sweep]\norders = 0:12:3\n",
    "noise_line_default.cfg": "[study]\nkind = noise\ntau = 0.3\n\n[sweep]\norders = 0:12:4\ndeltas = 0, 1e-3\n",
    "convergence_polar_default.cfg": (
        "[study]\nkind = convergence\ngeometry = polar\ntau = 0.5\n\n[sweep]\norders = 0:20:5\n"
    ),
    "convergence_overflow.cfg": (
        "[study]\nkind = convergence\ntau = 0.5\nvariants = CD-B, CD-C\n\n[sweep]\norders = 0, 10, 200, 400\n"
    ),
    "beta_map_line_default.cfg": "[study]\nkind = beta_map\ntau = 0.3\n\n[sweep]\norders = 20\nbetas = 0.2, 1.0\n",
    "beta_map_pi_b.cfg": (
        "[study]\nkind = beta_map\ngeometry = polar\ntau = 0.3\nvariants = PI-B, PI-C\n\n"
        "[sweep]\norders = 12\nbetas = 0.2, 0.9\n"
    ),
    # a PI-B shift below tau: every row reads its error, without a coefficient pass
    "noise_pi_b_beta_below_tau.cfg": (
        "[study]\nkind = noise\ngeometry = polar\ntau = 0.3\nvariants = PI-B\n\n"
        "[sweep]\norders = 0:40:4\nbetas = 0.2\n"
    ),
    "noise_paper_literal.cfg": (
        "[study]\nkind = noise\ngeometry = polar\ntau = 0.3\nvariants = PI-C\nconstants_mode = paper_literal\n\n"
        "[grid]\nlo = 0\nhi = 6\nn = 61\n\n[sweep]\norders = 0:8:4\ndeltas = 0, 1e-4\n"
    ),
    "audit.cfg": "[study]\nkind = audit\n",
    "audit_extra_keys.cfg": "[study]\nkind = audit\ntau = 0.5\nvariants = CD-A\nprofile = bump:radius=1\n",
    "audit_unknown_key.cfg": "[study]\nkind = audit\nwidth = 3\n",
    "grid_infinite_bound.cfg": "[study]\nkind = noise\n\n[grid]\nhi = inf\n",
    "grid_huge_bounds.cfg": (
        "[study]\nkind = noise\ntau = 0.3\n\n[grid]\nlo = -1e300\nhi = 1e300\n\n[sweep]\norders = 0:4:2\n"
    ),
    "grid_huge_bounds_order0.cfg": (
        "[study]\nkind = noise\ntau = 0.3\n\n[grid]\nlo = -1e300\nhi = 1e300\n\n[sweep]\norders = 0\n"
    ),
    # a variant of the wrong direction, and keys a study would drop or repeat rows for: exit 2
    "convergence_inverse_variant.cfg": "[study]\nkind = convergence\nvariants = CI-A\n",
    "noise_direct_variant.cfg": "[study]\nkind = noise\nvariants = CD-A\n",
    "compare_variants.cfg": "[study]\nkind = classical_compare\nvariants = CI-B\n",
    "noise_two_betas.cfg": "[study]\nkind = noise\n\n[sweep]\nbetas = 0.5, 0.9\n",
    "convergence_two_betas.cfg": "[study]\nkind = convergence\n\n[sweep]\nbetas = 0.5, 0.9\n",
    "repeated_orders.cfg": "[study]\nkind = convergence\n\n[sweep]\norders = 0, 4, 4\n",
    "repeated_deltas.cfg": "[study]\nkind = noise\n\n[sweep]\ndeltas = 0, 1e-3, 0\n",
    "repeated_betas.cfg": "[study]\nkind = beta_map\n\n[sweep]\norders = 8\nbetas = 0.5, 1, 0.5\n",
    "repeated_variants.cfg": "[study]\nkind = noise\nvariants = CI-A, CI-A\n",
    "convergence_seed.cfg": "[study]\nkind = convergence\nseed = 3\n",
    "convergence_deltas.cfg": "[study]\nkind = convergence\n\n[sweep]\ndeltas = 0.5\n",
    "convergence_grid.cfg": "[study]\nkind = convergence\n\n[grid]\nlo = -1\nhi = 1\nn = 3\n",
    "beta_map_seed.cfg": "[study]\nkind = beta_map\nseed = 3\n\n[sweep]\norders = 8\nbetas = 0.5\n",
    "beta_map_grid.cfg": "[study]\nkind = beta_map\n\n[grid]\nn = 101\n\n[sweep]\norders = 8\nbetas = 0.5\n",
    "unknown_key.cfg": "[study]\nkind = noise\nwidth = 3\n",
    "wrong_geometry.cfg": "[study]\nkind = noise\ngeometry = polar\nvariants = CI-A\n",
    "polar_classical.cfg": "[study]\nkind = classical_compare\ngeometry = polar\n",
    # malformed configs: exit 2, naming the file (and the line where there is one)
    "error_unknown_section.cfg": "[study]\nkind = noise\n\n[output]\nformat = csv\n",
    "error_key_outside.cfg": "kind = noise\n\n[study]\ntau = 0.3\n",
    "error_missing_equals.cfg": "[study]\nkind noise\n",
    "error_missing_kind.cfg": "[study]\ngeometry = line\ntau = 0.3\n",
    "error_bad_profile.cfg": "[study]\nkind = noise\nprofile = gaussian:a=-1\n",
    "error_word_tau.cfg": "[study]\nkind = noise\ntau = soon\n",
    "error_word_seed.cfg": "[study]\nkind = noise\nseed = 1.5\n",
    "error_word_grid_n.cfg": "[study]\nkind = noise\n\n[grid]\nn = many\n",
    "error_word_orders.cfg": "[study]\nkind = noise\n\n[sweep]\norders = 1.5\n",
    "error_repeated_key.cfg": "[study]\nkind = noise\ntau = 0.3\ntau = 0.5\n",
    "error_repeated_kind.cfg": "[study]\nkind = noise\nkind = audit\n",
    # two faults: StudyConfig's own checks come before the [grid] it completes
    "error_tau_and_grid.cfg": "[study]\nkind = noise\ntau = -1\n\n[grid]\nn = 1\n",
    "error_geometry_and_grid.cfg": "[study]\nkind = noise\ngeometry = sphere\n\n[grid]\nn = 1\n",
    "error_range_parts.cfg": "[study]\nkind = noise\n\n[sweep]\norders = 0:8\n",
    "error_range_reversed.cfg": "[study]\nkind = noise\n\n[sweep]\norders = 8:0:2\n",
    "error_empty_list.cfg": "[study]\nkind = noise\n\n[sweep]\ndeltas = ,\n",
    "negative_order.cfg": (
        "[study]\nkind = convergence\ntau = 0.5\nvariants = CD-A\n\n[sweep]\norders = -2, 4\n"
    ),
    "huge_order.cfg": "[study]\nkind = convergence\ntau = 0.5\n\n[sweep]\norders = 100000\n",
    # the oracle underflows to 0 on the compare grid: no relative error, exit 2 before any solve
    "zero_truth.cfg": (
        "[study]\nkind = convergence\ntau = 0.5\nprofile = gaussian:a=1,center=1000\nvariants = CD-A\n\n"
        "[sweep]\norders = 0, 4\n"
    ),
    # one node over the budget: refused before any sampling (a tree without the budget samples 16.7 M nodes)
    "grid_over_budget.cfg": "[study]\nkind = noise\ntau = 0.3\n\n[grid]\nn = 16777217\n\n[sweep]\norders = 0\n",
    "negative_delta.cfg": "[study]\nkind = noise\ntau = 0.3\n\n[sweep]\norders = 0:4:2\ndeltas = -1e-3\n",
    "negative_seed.cfg": "[study]\nkind = noise\ntau = 0.3\nseed = -1\n\n[sweep]\norders = 0:4:2\n",
    "negative_beta.cfg": "[study]\nkind = beta_map\ntau = 0.3\n\n[sweep]\norders = 8\nbetas = 0.5, -1\n",
    "nan_beta.cfg": "[study]\nkind = noise\ntau = 0.3\n\n[sweep]\norders = 0:4:2\nbetas = nan\n",
    "float_range.cfg": "[study]\nkind = beta_map\ntau = 0.3\n\n[sweep]\norders = 8\nbetas = 0.5:1.5:0.1\n",
    "bogus_mode.cfg": "[study]\nkind = convergence\ntau = 0.5\nconstants_mode = bogus\n\n[sweep]\norders = 0:4:2\n",
    "negative_tau.cfg": "[study]\nkind = convergence\ntau = -1\n\n[sweep]\norders = 0:4:2\n",
    "bump_noise.cfg": "[study]\nkind = noise\ntau = 0.3\nprofile = bump:radius=1\n\n[sweep]\norders = 0:4:2\n",
    "bump_classical_compare.cfg": (
        "[study]\nkind = classical_compare\ntau = 0.3\nprofile = bump:radius=1\n\n[sweep]\norders = 0:4:2\n"
    ),
    "bump_beta_map.cfg": (
        "[study]\nkind = beta_map\ntau = 0.3\nvariants = CI-A\nprofile = bump:radius=1\n\n"
        "[sweep]\norders = 4\nbetas = 0.5\n"
    ),
}


# samples of the Gaussian evolved to tau = 0.3: 16 001 of them, every one a
# breakpoint, so an adaptive level holds some 256 000 nodes, 63 blocks; 41;
# and a uniform grid without the node x = 0
SAMPLE_FILES = {
    "u_line16001.csv": (ref.line_field, np.linspace(-10.0, 10.0, 16001)),
    "u_polar16001.csv": (ref.polar_field, np.linspace(0.0, 10.0, 16001)),
    "u_line41.csv": (ref.line_field, np.linspace(-1.0, 1.0, 41)),
    "shifted.csv": (ref.line_field, [0.05 + 0.1 * k for k in range(-20, 20)]),
}


def _byte_files() -> dict:
    """Input files written as bytes: a sample file for each path of the
    reader (21 samples of the evolved Gaussian on [-2, 2], broken or
    decorated one way each, one with a UTF-8 comment), and a study config
    that is not UTF-8."""
    xs = np.linspace(-2.0, 2.0, 21)
    rows = [f"{x:.17g},{v:.17g}" for x, v in zip(xs, ref.line_field(GAUSS, 0.3, xs))]
    head = ["# written by golden.py", "x,value"]

    def text(lines, newline="\n"):
        return (newline.join(lines) + newline).encode("ascii")

    uneven = rows[:10] + [f"{xs[10] + 0.05:.17g},1"] + rows[11:]
    return {
        "reader_trailing_text.csv": text(head + rows + ["end,of data"]),
        "reader_short_row.csv": text(head + rows[:7] + ["0.5"] + rows[7:]),
        "reader_non_finite.csv": text(head + rows[:12] + ["0.45,nan"] + rows[12:]),
        "reader_decreasing.csv": text(head + rows[::-1]),
        "reader_uneven.csv": text(head + uneven),
        "reader_single.csv": text(head + rows[10:11]),
        "reader_headers_only.csv": text(head + ["r,u"]),
        "reader_crlf.csv": text(["# a comment", "# another", "x,value"] + rows, "\r\n"),
        "reader_comment_after.csv": text(head + rows[:10] + ["# midway"] + rows[10:]),
        # 0xff is no UTF-8 byte; the file is under the 8 KiB a text reader decodes at once
        "reader_undecodable.csv": text(head + rows[:5]) + b"\xff" + text(rows[5:]),
        # a UTF-8 comment row: read alike whatever the locale's encoding
        "reader_utf8_comment.csv": "# r\u00e9sum\u00e9 of the run\n".encode("utf-8") + text(head[1:] + rows),
        "error_undecodable.cfg": b"[study]\nkind = noise\n# caf\xe9\n",
    }


def _solve(command, geometry, variant, tau, grid, *rest):
    return [command, "--geometry", geometry, "--variant", variant, "--tau", repr(tau), "--eval-grid", grid, *rest]


def _own_commands() -> list:
    """(name, argv) pairs beyond the perfbench commands."""
    line_mix, polar_mix = ref.profile_text(MIX), ref.profile_text(PMIX)
    line_u = ref.profile_text(ref.evolved(MIX, 0.3))
    polar_u = ref.profile_text(ref.evolved_polar(PMIX, 0.3))
    gauss = ref.profile_text(GAUSS)
    out = []
    for mode in MODES:
        for fmt in ("csv", "json"):
            tail = ["--constants-mode", mode, "--format", fmt]
            for geometry, grid, tau, prof, path, fwd, inv, u_prof, u_path in (
                ("line", "-3:3:13", 0.5, line_mix, "f_mix.csv", ("CD-A", "CD-B", "CD-C", "oracle"),
                 ("CI-A", "CI-B", "CI-C", "CI-classical"), line_u, "u_mix.csv"),
                ("polar", "0:3:7", 0.5, polar_mix, "f_polar33.csv", ("PD-A", "PD-B", "PD-C", "oracle"),
                 ("PI-A", "PI-B", "PI-C"), polar_u, "u_polar33.csv"),
            ):
                for v in fwd:
                    beta = [] if v == "oracle" else ["--beta", "auto"]
                    out.append((f"fwd-{v}-{geometry}-profile-{mode}-{fmt}",
                                _solve("forward", geometry, v, tau, grid, *beta, "--order", "20", "--profile",
                                       prof, *tail)))
                    out.append((f"fwd-{v}-{geometry}-file-{mode}-{fmt}",
                                _solve("forward", geometry, v, tau, grid, *beta, "--order", "12", "--input",
                                       path, *tail)))
                for v in inv:
                    beta = [] if v == "CI-classical" else ["--beta", "auto"]
                    out.append((f"inv-{v}-{geometry}-evolved-{mode}-{fmt}",
                                _solve("inverse", geometry, v, 0.3, grid, *beta, "--order", "12", "--profile",
                                       u_prof, *tail)))
                    out.append((f"inv-{v}-{geometry}-file-{mode}-{fmt}",
                                _solve("inverse", geometry, v, 0.3, grid, *beta, "--order", "8", "--input",
                                       u_path, *tail)))
        # explicit shifts at orders 0 and 40, CSV
        for v in ("CD-A", "CD-B", "CD-C", "PD-A", "PD-B", "PD-C"):
            geometry, grid = ("line", "-2:2:5") if v[0] == "C" else ("polar", "0:2:5")
            for order in ("0", "40"):
                out.append((f"fwd-{v}-beta1.3-N{order}-{mode}",
                            _solve("forward", geometry, v, 0.3, grid, "--beta", "1.3", "--order", order,
                                   "--profile", gauss, "--constants-mode", mode)))
        for v in ("CI-A", "CI-B", "CI-C", "PI-A", "PI-B", "PI-C"):
            geometry, grid = ("line", "-2:2:5") if v[0] == "C" else ("polar", "0:2:5")
            u = ref.profile_text(ref.evolved(GAUSS, 0.3) if geometry == "line" else ref.evolved_polar(GAUSS, 0.3))
            for order in ("0", "40"):
                out.append((f"inv-{v}-beta1.3-N{order}-{mode}",
                            _solve("inverse", geometry, v, 0.3, grid, "--beta", "1.3", "--order", order,
                                   "--profile", u, "--constants-mode", mode)))
        # overflow: exit 3, named points and polynomial batches
        for v, geometry, grid, tau, order in (
            ("CD-C", "line", "0:400:5", 0.5, "200"), ("CI-C", "line", "0:400:5", 0.3, "200"),
            ("PD-C", "polar", "0:2000:5", 0.5, "200"), ("PI-C", "polar", "0:2000:5", 0.3, "200"),
            ("CD-A", "line", "0:1000:3", 0.5, "200"), ("CI-B", "line", "-900:900:3", 0.3, "200"),
            ("PD-A", "polar", "0:60:5", 0.5, "200"), ("PI-A", "polar", "0:80:5", 0.3, "200"),
            ("PD-A", "polar", "0:3:4", 0.5, "126"), ("PI-B", "polar", "0:3:4", 0.3, "130"),
        ):
            direct = v[1] == "D"
            out.append((f"overflow-{v}-N{order}-{mode}",
                        _solve("forward" if direct else "inverse", geometry, v, tau, grid, "--beta", "0.5",
                               "--order", order, "--profile", gauss, "--constants-mode", mode)))
        out.append((f"validate-{mode}-json", ["validate", "--constants-mode", mode, "--format", "json"]))
    # noise, truth and seeds on sampled data
    for v, path, grid, beta in (("CI-A", "u_mix.csv", "-3:3:13", "auto"), ("CI-C", "u_mix.csv", "-1:1:5", "auto"),
                                ("CI-classical", "u_classical.csv", "-1:1:5", None),
                                ("PI-B", "u_polar33.csv", "0:2:5", "auto")):
        geometry = "polar" if v[0] == "P" else "line"
        beta_args = ["--beta", beta] if beta else []
        for noise, seed in (("1e-6", "0"), ("1e-6", "7"), ("0", "3")):
            out.append((f"inv-{v}-noise{noise}-seed{seed}",
                        _solve("inverse", geometry, v, 0.3, grid, *beta_args, "--order", "8", "--input", path,
                               "--noise", noise, "--seed", seed, "--truth", gauss)))
    out.append(("inv-CI-A-truth-json", _solve("inverse", "line", "CI-A", 0.3, "-3:3:13", "--beta", "auto",
                                               "--profile", line_u, "--truth", line_mix, "--format", "json")))
    # the plain closed form over four node blocks, its end rows from the first and last
    for v in ("CI-A", "CI-C"):
        out.append((f"inv-{v}-line16001", _solve("inverse", "line", v, 0.3, "-1.5:1.5:5", "--beta", "auto",
                                                 "--order", "8", "--input", "u_line16001.csv")))
    out.append(("inv-CI-B-line16001", _solve("inverse", "line", "CI-B", 0.3, "-3:3:25", "--beta", "auto",
                                              "--input", "u_line16001.csv")))
    out.append(("fwd-oracle-line16001", _solve("forward", "line", "oracle", 0.5, "-3:3:25", "--input",
                                                "u_line16001.csv")))
    out.append(("fwd-oracle-polar16001", _solve("forward", "polar", "oracle", 0.5, "0:3:13", "--input",
                                                 "u_polar16001.csv")))
    out.append(("fwd-single-point", _solve("forward", "line", "CD-C", 0.5, "0.7:0.7:1", "--beta", "auto",
                                            "--profile", line_mix)))
    # order-40 C inverses of analytic data, whose adaptive moments' rounding
    # noise the divergence scan flagged (50 and 38 rows)
    out.append(("inv-CI-C-N40-mixture", _solve("inverse", "line", "CI-C", 0.3, "-4:4:161", "--beta", "auto",
                                                "--order", "40", "--profile",
                                                "mixture:[a=1.2,center=-0.5,amp=1; a=1.7,center=0.7,amp=0.7]")))
    out.append(("inv-PI-C-N40-gaussian", _solve("inverse", "polar", "PI-C", 0.3, "0:4:81", "--beta", "auto",
                                                 "--order", "40", "--profile", "gaussian:a=1.3")))
    # data without a closed-form moment at the asked scale: the adaptive quadrature's passes
    for name, argv in (
        ("fwd-CD-A-bump", _solve("forward", "line", "CD-A", 0.5, "-2:2:9", "--beta", "1", "--profile",
                                 "bump:radius=1.5")),
        ("fwd-CD-C-bump", _solve("forward", "line", "CD-C", 0.5, "-2:2:9", "--beta", "1", "--profile",
                                 "bump:radius=1.5")),
        ("inv-CI-B-bump", _solve("inverse", "line", "CI-B", 0.3, "-2:2:9", "--beta", "1", "--profile",
                                 "bump:radius=2")),
        ("fwd-PD-A-bump", _solve("forward", "polar", "PD-A", 0.5, "0:2:9", "--beta", "1", "--profile",
                                 "bump:radius=2")),
        ("fwd-PD-C-off-centre", _solve("forward", "polar", "PD-C", 0.5, "0:2:9", "--beta", "1", "--profile",
                                       "gaussian:a=0.9,center=1.5")),
        ("fwd-PD-A-beta20-file", _solve("forward", "polar", "PD-A", 0.5, "0:2:9", "--beta", "20", "--input",
                                        "f_polar33.csv")),
        ("inv-CI-B-beta4-file", _solve("inverse", "line", "CI-B", 0.3, "-1:1:9", "--beta", "4", "--input",
                                       "u_line41.csv")),
    ):
        out.append((f"quadrature-{name}", argv))
    # each path of the sample-file reader
    for name in sorted(_byte_files()):
        if name.startswith("reader_"):
            out.append((f"inv-{name[:-4]}", _solve("inverse", "line", "CI-A", 0.3, "-1:1:5", "--beta", "auto",
                                                   "--order", "8", "--input", name)))
    # configuration errors: exit 2
    bad = {
        "no-beta": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--profile", gauss),
        "bad-beta": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "-1", "--profile", gauss),
        "word-beta": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "wide", "--profile", gauss),
        "bad-profile": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--profile", "gaussian:a=-1"),
        "junk-profile": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--profile", "blob"),
        "bad-grid": _solve("forward", "line", "CD-A", 0.5, "1:-1:3", "--beta", "1", "--profile", gauss),
        "huge-grid": _solve("forward", "line", "CD-A", 0.5, "0:1:100000000000", "--beta", "1", "--order", "4",
                            "--profile", gauss),
        "negative-radius": _solve("forward", "polar", "PD-A", 0.5, "-1:1:3", "--beta", "1", "--profile", gauss),
        "wrong-geometry": _solve("forward", "polar", "CD-A", 0.5, "0:1:3", "--beta", "1", "--profile", gauss),
        "negative-tau": _solve("forward", "line", "oracle", -0.5, "-1:1:3", "--profile", gauss),
        "negative-order": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--order", "-1",
                                 "--profile", gauss),
        "two-sources": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--profile", gauss,
                              "--input", "f_mix.csv"),
        "missing-file": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--input", "none.csv"),
        "noise-on-profile": _solve("inverse", "line", "CI-A", 0.3, "-1:1:3", "--beta", "1", "--profile", gauss,
                                   "--noise", "0.1"),
        "bad-truth": _solve("inverse", "line", "CI-A", 0.3, "-1:1:3", "--beta", "1", "--profile", gauss,
                            "--truth", "blob"),
        "pi-b-beta-below-tau": _solve("inverse", "polar", "PI-B", 0.3, "0:1:3", "--beta", "0.2", "--profile", gauss),
        "classical-no-zero-node": _solve("inverse", "line", "CI-classical", 0.3, "-1:1:3", "--input", "shifted.csv"),
        "unknown-variant": _solve("forward", "line", "CD-Z", 0.5, "-1:1:3", "--profile", gauss),
        # a shift on a variant without one, and an order whose moment pass outgrows the budget
        "oracle-beta": _solve("forward", "line", "oracle", 0.5, "0:1:2", "--beta", "7", "--profile", gauss),
        "classical-beta": _solve("inverse", "line", "CI-classical", 0.5, "0:1:2", "--beta", "2", "--profile", gauss),
        "huge-order": _solve("forward", "line", "CD-A", 0.5, "0:0:1", "--beta", "1", "--order", "100000",
                             "--profile", "bump:radius=1"),
        # a truth that is 0, and one whose l2 norm underflows to 0
        "zero-truth": _solve("inverse", "line", "CI-A", 0.3, "-1:1:3", "--beta", "1", "--profile", gauss,
                             "--truth", "gaussian:a=1,amp=0"),
        "underflowing-truth": _solve("inverse", "line", "CI-A", 0.3, "-1:1:3", "--beta", "1", "--profile", gauss,
                                     "--truth", "gaussian:a=1,amp=1e-320"),
        "output-missing-dir": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--profile", gauss,
                                     "--output", "missing_dir/x.csv"),
        "output-directory": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--profile", gauss,
                                   "--output", "scripts"),
    }
    out.extend((f"error-{name}", argv) for name, argv in bad.items())
    for name in sorted(STUDY_CONFIGS):
        out.append((f"study-{name}", ["study", "--config", name]))
    out.append(("study-noise-line-json", ["study", "--config", "scripts/configs/noise_line.cfg", "--format", "json"]))
    out.append(("study-missing", ["study", "--config", "none.cfg"]))
    out.append(("study-error_undecodable.cfg", ["study", "--config", "error_undecodable.cfg"]))
    # a study takes its constants mode from its config file only
    out.append(("study-constants-mode-flag",
                ["study", "--config", "noise_polar_default.cfg", "--constants-mode", "paper_literal"]))
    return out


_CSV_TIMED = re.compile(r"^([^#\n][^\n]*),[^,\n]*$", re.M)
_JSON_TIMED = re.compile(r'("runtime_ms": )[^,\n}]+')


def _mask(text: str) -> str:
    """The text with every study row's runtime_ms replaced by '*'."""
    if '"runtime_ms"' in text:
        return _JSON_TIMED.sub(r'\1"*"', text)
    head, sep, body = text.partition("\nvariant,N,beta,delta,error_l2,error_max,diverged,status,runtime_ms\n")
    if not sep:
        return text
    return head + sep + _CSV_TIMED.sub(r"\1,*", body)


def _run(argv: list, output: str | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # a traceback: recorded, not raised
            code = f"exception {type(exc).__name__}: {exc}"
    record = {"argv": argv, "exit": code, "stdout": _mask(out.getvalue()), "stderr": err.getvalue()}
    if output is not None:
        with open(output) as handle:
            record["output"] = _mask(handle.read())
    return record


def record(path: str) -> int:
    workdir = tempfile.mkdtemp(prefix="golden-")
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        shutil.copytree(os.path.join(ROOT, "scripts", "configs"), os.path.join("scripts", "configs"))
        commands = []
        for name in workloads.NAMES:
            load = workloads.build(name, ".", ".")
            load.write_inputs()
            commands += [(f"perfbench-{name}-{c.name}", c.concrete_argv(NOISE_SEED), c.output) for c in load.commands]
        files = {name: text.encode("ascii") for name, text in STUDY_CONFIGS.items()}
        for name, (field, xs) in SAMPLE_FILES.items():
            files[name] = ref.samples_text(xs, field(GAUSS, 0.3, xs)).encode("ascii")
        for name, data in {**files, **_byte_files()}.items():
            with open(name, "wb") as handle:
                handle.write(data)
        commands += [(name, argv, None) for name, argv in _own_commands()]
        results = {}
        for name, argv, output in commands:
            if name in results:
                raise SystemExit(f"duplicate command name {name}")
            results[name] = _run(list(argv), output)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    host = machine()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"host": {key: host[key] for key in HOST}}, sort_keys=True) + "\n")
        for name in sorted(results):
            handle.write(json.dumps({"name": name, **results[name]}) + "\n")
    codes = collections.Counter(str(res["exit"]) for res in results.values())
    print(f"{len(results)} commands recorded in {path}; exit codes {dict(sorted(codes.items()))}")
    return 0


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _numeric_diff(a, b):
    """(numbers that differ, max abs, max rel difference) when the texts a
    and b differ in numeric tokens only, else None."""
    if not (isinstance(a, str) and isinstance(b, str)) or _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return None
    pairs = [(float(x), float(y)) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)) if x != y]
    diffs = [abs(x - y) for x, y in pairs]
    rels = [d / max(abs(x), abs(y)) if d else 0.0 for d, (x, y) in zip(diffs, pairs)]
    return len(pairs), max(diffs, default=0.0), max(rels, default=0.0)


def _load(path: str) -> dict:
    """{name: record} of a record file, its first line (the host) left out."""
    with open(path, encoding="utf-8") as handle:
        return {row.pop("name"): row for row in map(json.loads, handle.readlines()[1:])}


def compare(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    names, differ = sorted(set(a) | set(b)), []
    for name in names:
        if name not in a or name not in b:
            differ.append(f"{name}: only in {path_a if name in a else path_b}")
            continue
        fields = [key for key in ("argv", "exit", "stdout", "stderr", "output") if a[name].get(key) != b[name].get(key)]
        if fields:
            line = f"{name}: {', '.join(fields)} differ"
            numeric = [_numeric_diff(a[name].get(key), b[name].get(key)) for key in fields]
            if None not in numeric:
                counts, d_abs, d_rel = zip(*numeric)
                line += f" in {sum(counts)} numbers only (max abs {max(d_abs):.3g}, max rel {max(d_rel):.3g})"
            differ.append(line)
    for line in differ:
        print(line)
    print(f"{len(names) - len(differ)} identical, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", nargs="?", help="the record to write, e.g. tests/golden/record.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the commands whose records differ")
    args = parser.parse_args(argv)
    if (args.output is None) == (args.compare is None):
        parser.error("give one record to write, or --compare A B")
    return compare(*args.compare) if args.compare else record(args.output)


if __name__ == "__main__":
    sys.exit(main())
