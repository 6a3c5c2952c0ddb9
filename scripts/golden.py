"""Golden CLI outputs: run a fixed command list through `heatseries.cli.main`
in-process and record the stdout, stderr and exit code of each command.

    python3 scripts/golden.py OUT.json             # record, with the src/ next to this script
    python3 scripts/golden.py --compare A.json B.json

The list holds the perfbench commands; forward/inverse of every series
variant, CI-classical and both oracles in both constants modes, as CSV and
JSON, on analytic, evolved and sampled data; overflow (exit 3) and
configuration (exit 2) cases; `validate` in both modes; and study configs of
every kind, the shipped ones included.

Commands run in a fresh temporary directory that holds their input files,
so every path they echo is relative and a record does not depend on where
the checkout lives.  A command that writes --output has that file recorded
too.  The runtime_ms column of study reports is wall-clock time and is
masked.  --compare lists the commands whose records differ and exits 1 if
any does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import reference as ref  # noqa: E402  perfbench's closed-form evolutions and sample writer
import workloads  # noqa: E402

from heatseries import cli  # noqa: E402

MODES = ("oracle_validated", "paper_literal")
NOISE_SEED = 1
MIX, PMIX, GAUSS = workloads.MIX, workloads.PMIX, workloads.GAUSS

STUDY_CONFIGS = {
    "noise_polar_default.cfg": "[study]\nkind = noise\ngeometry = polar\ntau = 0.3\n\n[sweep]\norders = 0:12:3\n",
    "noise_line_default.cfg": "[study]\nkind = noise\ntau = 0.3\n\n[sweep]\norders = 0:12:4\ndeltas = 0, 1e-3\n",
    "convergence_polar_default.cfg": (
        "[study]\nkind = convergence\ngeometry = polar\ntau = 0.5\n\n[grid]\nn = 101\n\n[sweep]\norders = 0:20:5\n"
    ),
    "convergence_overflow.cfg": (
        "[study]\nkind = convergence\ntau = 0.5\nvariants = CD-B, CD-C\n\n[sweep]\norders = 0, 10, 200, 400\n"
    ),
    "beta_map_line_default.cfg": "[study]\nkind = beta_map\ntau = 0.3\n\n[sweep]\norders = 20\nbetas = 0.2, 1.0\n",
    "beta_map_pi_b.cfg": (
        "[study]\nkind = beta_map\ngeometry = polar\ntau = 0.3\nvariants = PI-B, PI-C\n\n"
        "[sweep]\norders = 12\nbetas = 0.2, 0.9\n"
    ),
    "noise_paper_literal.cfg": (
        "[study]\nkind = noise\ngeometry = polar\ntau = 0.3\nvariants = PI-C\nconstants_mode = paper_literal\n\n"
        "[grid]\nlo = 0\nhi = 6\nn = 61\n\n[sweep]\norders = 0:8:4\ndeltas = 0, 1e-4\n"
    ),
    "audit.cfg": "[study]\nkind = audit\n",
    "unknown_key.cfg": "[study]\nkind = noise\nwidth = 3\n",
    "wrong_geometry.cfg": "[study]\nkind = noise\ngeometry = polar\nvariants = CI-A\n",
    "polar_classical.cfg": "[study]\nkind = classical_compare\ngeometry = polar\n",
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
    out.append(("fwd-single-point", _solve("forward", "line", "CD-C", 0.5, "0.7:0.7:1", "--beta", "auto",
                                            "--profile", line_mix)))
    # configuration errors: exit 2
    bad = {
        "no-beta": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--profile", gauss),
        "bad-beta": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "-1", "--profile", gauss),
        "word-beta": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "wide", "--profile", gauss),
        "bad-profile": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--profile", "gaussian:a=-1"),
        "junk-profile": _solve("forward", "line", "CD-A", 0.5, "-1:1:3", "--beta", "1", "--profile", "blob"),
        "bad-grid": _solve("forward", "line", "CD-A", 0.5, "1:-1:3", "--beta", "1", "--profile", gauss),
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
    }
    out.extend((f"error-{name}", argv) for name, argv in bad.items())
    for name in sorted(STUDY_CONFIGS):
        out.append((f"study-{name}", ["study", "--config", name]))
    out.append(("study-noise-line-json", ["study", "--config", "scripts/configs/noise_line.cfg", "--format", "json"]))
    out.append(("study-missing", ["study", "--config", "none.cfg"]))
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
    target = os.path.abspath(path)
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
        for name, text in STUDY_CONFIGS.items():
            with open(name, "w") as handle:
                handle.write(text)
        xs = [0.05 + 0.1 * k for k in range(-20, 20)]  # a uniform grid without the node x = 0
        with open("shifted.csv", "w") as handle:
            handle.write(ref.samples_text(xs, ref.line_field(GAUSS, 0.3, xs)))
        commands += [(name, argv, None) for name, argv in _own_commands()]
        results = {}
        for name, argv, output in commands:
            if name in results:
                raise SystemExit(f"duplicate command name {name}")
            results[name] = _run(list(argv), output)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(target, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    codes = {}
    for res in results.values():
        codes[str(res["exit"])] = codes.get(str(res["exit"]), 0) + 1
    print(f"{len(results)} commands recorded in {path}; exit codes {dict(sorted(codes.items()))}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    differ, same = [], 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            differ.append(f"{name}: only in {path_a if name in a else path_b}")
            continue
        fields = [key for key in ("argv", "exit", "stdout", "stderr", "output") if a[name].get(key) != b[name].get(key)]
        if fields:
            differ.append(f"{name}: {', '.join(fields)} differ")
        else:
            same += 1
    for line in differ:
        print(line)
    print(f"{same} identical, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="OUT.json to record, or A.json B.json with --compare")
    parser.add_argument("--compare", action="store_true", help="list the commands whose records differ")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.paths) != 2:
            parser.error("--compare needs two record files")
        return compare(*args.paths)
    if len(args.paths) != 1:
        parser.error("recording needs one output file")
    return record(args.paths[0])


if __name__ == "__main__":
    sys.exit(main())
