"""The three workloads: fixed command mixes for `heatseries.cli.main`.

Each workload is a list of distinct commands.  A run repeats whole rounds of
them; the seed only shuffles the order of each round and picks the noise seed
of the noisy command, so every seed does the same work.  Inputs (sample files
and study configs) do not depend on the seed.

Tolerances are relative to the reference's largest magnitude and sit a few
times above the error the method reaches on that input (README.md lists them).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import reference as ref

# initial data: (a, center, amp) Gaussian components
GAUSS = ((1.0, 0.0, 1.0),)
MIX = ((0.9, -0.5, 1.0), (1.4, 0.7, 0.7))  # the README mixture
PMIX = ((0.9, 0.0, 1.0), (1.3, 0.0, 0.8))  # centred radial mixture

NOISE_SEED = "{noise_seed}"


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    check: object  # callable(text) raising checks.CheckError
    output: str | None = None  # file the command writes; None: stdout

    def concrete_argv(self, noise_seed: int) -> list:
        return [str(noise_seed) if a == NOISE_SEED else a for a in self.argv]


@dataclass
class Workload:
    name: str
    commands: list
    files: dict = field(default_factory=dict)  # path -> text, written at set-up
    min_commands: int = 40

    @property
    def tail_pct(self) -> float:
        """The highest percentile with ten commands beyond it in the shortest run."""
        return 100.0 * (1.0 - 10.0 / self.min_commands)

    def write_inputs(self) -> None:
        for path, text in self.files.items():
            with open(path, "w") as handle:
                handle.write(text)


def _field(geometry: str):
    return ref.line_field if geometry == "line" else ref.polar_field


class _Mix:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.files: dict = {}
        self.commands: list = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def samples(self, name, geometry, components, t, lo, hi, n) -> str:
        xs = np.linspace(lo, hi, n)
        path = self.path(name)
        self.files[path] = ref.samples_text(xs, _field(geometry)(components, t, xs))
        return path

    def text(self, name: str, text: str) -> str:
        path = self.path(name)
        self.files[path] = text
        return path

    def solve(self, name, command, geometry, variant, tau, grid, truth, tol, *,
              beta=None, order=None, profile=None, source=None, flags_clear=False,
              fmt=None, to_file=False, extra=()):
        """One forward/inverse command; the reference is the field of the
        Gaussian components truth[0] at time truth[1]."""
        argv = [command, "--geometry", geometry, "--variant", variant, "--tau", repr(tau),
                "--eval-grid", grid]
        if beta is not None:
            argv += ["--beta", beta]
        if order is not None:
            argv += ["--order", str(order)]
        argv += ["--profile", ref.profile_text(profile)] if profile else ["--input", source]
        if fmt:
            argv += ["--format", fmt]
        output = self.path(f"{name}.out") if to_file else None
        if output:
            argv += ["--output", output]
        argv += list(extra)
        xs = ref.grid(grid)
        check = functools.partial(
            checks.check_field, xs=xs, ref=_field(geometry)(*truth, xs), tol=tol, flags_clear=flags_clear
        )
        self.commands.append(Command(name, tuple(argv), check, output))

    def forward(self, name, geometry, variant, tau, grid, components, tol, **kw):
        self.solve(name, "forward", geometry, variant, tau, grid, (components, tau), tol, **kw)

    def inverse(self, name, geometry, variant, tau, grid, components, tol, **kw):
        """components are the initial data; analytic inputs pass evolved=True."""
        if kw.pop("evolved", False):
            evolve = ref.evolved if geometry == "line" else ref.evolved_polar
            kw["profile"] = evolve(components, tau)
        self.solve(name, "inverse", geometry, variant, tau, grid, (components, 0.0), tol, **kw)

    def study(self, name, config_path, check):
        self.commands.append(Command(name, ("study", "--config", config_path), check))


def solve_ab(workdir: str) -> Workload:
    b = _Mix(workdir)
    f_mix = b.samples("f_mix.csv", "line", MIX, 0.0, -12.0, 12.0, 481)
    u_line = b.samples("u_line.csv", "line", GAUSS, 0.3, -10.0, 10.0, 1601)
    u_mix = b.samples("u_mix.csv", "line", MIX, 0.3, -12.0, 12.0, 481)
    u_classical = b.samples("u_classical.csv", "line", GAUSS, 0.05, -10.0, 10.0, 201)
    f_polar = b.samples("f_polar.csv", "polar", PMIX, 0.0, 0.0, 10.0, 201)
    u_polar = b.samples("u_polar.csv", "polar", GAUSS, 0.3, 0.0, 10.0, 401)
    L, P = "line", "polar"
    # direct, line
    b.forward("cd-a-mix-121", L, "CD-A", 0.5, "-3:3:121", MIX, 1e-12, beta="auto", profile=MIX, flags_clear=True)
    b.forward("cd-b-mix-121", L, "CD-B", 0.5, "-3:3:121", MIX, 1e-12, beta="auto", profile=MIX, flags_clear=True)
    b.forward("cd-a-mix-1001", L, "CD-A", 0.5, "-4:4:1001", MIX, 1e-12, beta="1.2", profile=MIX,
              flags_clear=True, to_file=True)
    b.forward("cd-b-mix-1001", L, "CD-B", 0.5, "-4:4:1001", MIX, 1e-9, beta="1.2", profile=MIX,
              flags_clear=True, to_file=True)
    b.forward("cd-a-mix-121-b1.5", L, "CD-A", 0.5, "-3:3:121", MIX, 1e-11, beta="1.5", profile=MIX,
              flags_clear=True)
    b.forward("cd-b-mix-121-b0.8", L, "CD-B", 0.5, "-3:3:121", MIX, 1e-12, beta="0.8", profile=MIX,
              flags_clear=True)
    b.forward("cd-b-gauss-121", L, "CD-B", 0.3, "-3:3:121", GAUSS, 1e-12, beta="auto", profile=GAUSS,
              flags_clear=True)
    b.forward("cd-a-gauss-1001", L, "CD-A", 0.3, "-4:4:1001", GAUSS, 1e-12, beta="auto", profile=GAUSS,
              flags_clear=True)
    b.forward("cd-a-file", L, "CD-A", 0.5, "-3:3:121", MIX, 3e-4, beta="auto", source=f_mix)
    b.forward("cd-b-file", L, "CD-B", 0.5, "-3:3:121", MIX, 3e-4, beta="auto", source=f_mix)
    b.forward("oracle-line-mix", L, "oracle", 0.5, "-3:3:121", MIX, 1e-12, profile=MIX)
    b.forward("oracle-line-gauss", L, "oracle", 0.3, "-3:3:121", GAUSS, 1e-12, profile=GAUSS)
    b.forward("oracle-line-file", L, "oracle", 0.5, "-3:3:121", MIX, 3e-4, source=f_mix)
    # direct, polar
    b.forward("pd-a-gauss-61", P, "PD-A", 0.5, "0:3:61", GAUSS, 1e-12, beta="auto", profile=GAUSS, flags_clear=True)
    b.forward("pd-b-gauss-61", P, "PD-B", 0.5, "0:3:61", GAUSS, 1e-12, beta="auto", profile=GAUSS, flags_clear=True)
    b.forward("pd-a-gauss-401", P, "PD-A", 0.5, "0:4:401", GAUSS, 1e-12, beta="auto", profile=GAUSS,
              flags_clear=True)
    b.forward("pd-a-mix-1001", P, "PD-A", 0.5, "0:4:1001", PMIX, 1e-12, beta="auto", profile=PMIX,
              flags_clear=True, fmt="json")
    b.forward("pd-b-mix-1001", P, "PD-B", 0.5, "0:4:1001", PMIX, 1e-12, beta="auto", profile=PMIX,
              flags_clear=True, to_file=True)
    b.forward("pd-a-mix-61", P, "PD-A", 0.5, "0:3:61", PMIX, 1e-12, beta="0.9", profile=PMIX, flags_clear=True)
    b.forward("pd-b-mix-61", P, "PD-B", 0.5, "0:3:61", PMIX, 1e-12, beta="0.9", profile=PMIX, flags_clear=True)
    b.forward("pd-a-file", P, "PD-A", 0.5, "0:3:61", PMIX, 2e-4, beta="auto", source=f_polar)
    b.forward("pd-b-file", P, "PD-B", 0.5, "0:3:61", PMIX, 2e-4, beta="auto", source=f_polar)
    b.forward("oracle-polar-mix", P, "oracle", 0.5, "0:3:61", PMIX, 1e-12, profile=PMIX)
    # inverse, line
    b.inverse("ci-a-file-25", L, "CI-A", 0.3, "-3:3:25", GAUSS, 1e-3, beta="auto", source=u_line)
    b.inverse("ci-b-file-25", L, "CI-B", 0.3, "-3:3:25", GAUSS, 5e-5, beta="auto", source=u_line)
    b.inverse("ci-a-file-1001", L, "CI-A", 0.3, "-3:3:1001", GAUSS, 1e-4, beta="auto", order=8,
              source=u_line, to_file=True)
    b.inverse("ci-b-file-1001", L, "CI-B", 0.3, "-3:3:1001", GAUSS, 5e-5, beta="auto", source=u_line,
              to_file=True)
    b.inverse("ci-a-mix-121", L, "CI-A", 0.3, "-3:3:121", MIX, 1e-10, beta="auto", evolved=True)
    b.inverse("ci-b-mix-121", L, "CI-B", 0.3, "-3:3:121", MIX, 1e-4, beta="auto", evolved=True)
    b.inverse("ci-a-gauss-121-b1.2", L, "CI-A", 0.3, "-3:3:121", GAUSS, 1e-12, beta="1.2", evolved=True,
              flags_clear=True)
    b.inverse("ci-b-gauss-121-b1.2", L, "CI-B", 0.3, "-3:3:121", GAUSS, 5e-5, beta="1.2", evolved=True,
              flags_clear=True)
    b.inverse("ci-b-mix-121-b0.8", L, "CI-B", 0.3, "-3:3:121", MIX, 1e-5, beta="0.8", evolved=True,
              flags_clear=True)
    b.inverse("ci-a-mixfile", L, "CI-A", 0.3, "-3:3:121", MIX, 5e-3, beta="auto", order=8, source=u_mix)
    b.inverse("ci-b-mixfile", L, "CI-B", 0.3, "-3:3:121", MIX, 2e-4, beta="0.8", source=u_mix)
    b.inverse("ci-classical-noise", L, "CI-classical", 0.05, "-1:1:21", GAUSS, 1e-3, order=4,
              source=u_classical, extra=("--noise", "1e-8", "--seed", NOISE_SEED))
    b.inverse("ci-classical-gauss", L, "CI-classical", 0.3, "-2:2:25", GAUSS, 1e-10, order=40, evolved=True)
    b.inverse("ci-classical-mix", L, "CI-classical", 0.3, "-2:2:25", MIX, 1e-11, order=40, evolved=True)
    # inverse, polar
    b.inverse("pi-a-file", P, "PI-A", 0.3, "0:3:61", GAUSS, 5e-4, beta="auto", order=8, source=u_polar)
    b.inverse("pi-b-file", P, "PI-B", 0.3, "0:3:61", GAUSS, 5e-4, beta="auto", order=8, source=u_polar)
    b.inverse("pi-a-gauss-1001", P, "PI-A", 0.3, "0:3:1001", GAUSS, 1e-12, beta="auto", evolved=True,
              flags_clear=True)
    b.inverse("pi-b-gauss-1001", P, "PI-B", 0.3, "0:3:1001", GAUSS, 1e-12, beta="auto", evolved=True,
              flags_clear=True)
    b.inverse("pi-b-gauss-401", P, "PI-B", 0.3, "0:3:401", GAUSS, 1e-12, beta="auto", evolved=True,
              flags_clear=True)
    b.inverse("pi-a-gauss-401", P, "PI-A", 0.3, "0:3:401", GAUSS, 1e-12, beta="auto", evolved=True,
              flags_clear=True)
    b.inverse("pi-a-mix-61-b1.2", P, "PI-A", 0.3, "0:3:61", PMIX, 1e-9, beta="1.2", evolved=True,
              flags_clear=True)
    b.inverse("pi-b-mix-61-b1.5", P, "PI-B", 0.3, "0:3:61", PMIX, 1e-9, beta="1.5", evolved=True,
              flags_clear=True)
    b.inverse("pi-a-mix-61", P, "PI-A", 0.3, "0:3:61", PMIX, 1e-9, beta="auto", evolved=True)
    b.inverse("pi-b-mix-61", P, "PI-B", 0.3, "0:3:61", PMIX, 1e-9, beta="auto", evolved=True)
    return Workload("solve_ab", b.commands, b.files, min_commands=1000)


def solve_c(workdir: str) -> Workload:
    b = _Mix(workdir)
    f_mix = b.samples("f_mix.csv", "line", MIX, 0.0, -12.0, 12.0, 481)
    u_line = b.samples("u_line401.csv", "line", GAUSS, 0.3, -10.0, 10.0, 401)
    u_mix = b.samples("u_mix.csv", "line", MIX, 0.3, -12.0, 12.0, 481)
    f_polar = b.samples("f_polar33.csv", "polar", PMIX, 0.0, 0.0, 8.0, 33)
    u_polar = b.samples("u_polar33.csv", "polar", PMIX, 0.3, 0.0, 8.0, 33)
    L, P = "line", "polar"
    b.forward("cd-c-mix", L, "CD-C", 0.5, "-3:3:13", MIX, 1e-12, beta="auto", profile=MIX, flags_clear=True)
    b.forward("cd-c-file", L, "CD-C", 0.5, "-3:3:13", MIX, 3e-4, beta="auto", source=f_mix)
    b.inverse("ci-c-mix", L, "CI-C", 0.3, "-3:3:13", MIX, 1e-7, beta="auto", evolved=True)
    b.inverse("ci-c-file", L, "CI-C", 0.3, "-1.5:1.5:5", GAUSS, 1e-3, beta="auto", order=8, source=u_line)
    b.inverse("ci-c-mixfile", L, "CI-C", 0.3, "-1.5:1.5:5", MIX, 3e-3, beta="auto", order=8, source=u_mix)
    b.forward("pd-c-gauss", P, "PD-C", 0.5, "0:3:7", GAUSS, 1e-12, beta="auto", profile=GAUSS, flags_clear=True)
    b.forward("pd-c-mix", P, "PD-C", 0.5, "0:3:4", PMIX, 1e-8, beta="auto", order=20, profile=PMIX,
              flags_clear=True)
    b.forward("pd-c-file", P, "PD-C", 0.5, "0:3:4", PMIX, 3e-3, beta="auto", order=12, source=f_polar)
    b.inverse("pi-c-gauss", P, "PI-C", 0.3, "0:3:4", GAUSS, 1e-9, beta="auto", order=20, evolved=True)
    b.inverse("pi-c-mix", P, "PI-C", 0.3, "0:3:4", PMIX, 5e-6, beta="auto", order=20, evolved=True)
    b.inverse("pi-c-file", P, "PI-C", 0.3, "0:2:3", PMIX, 3e-2, beta="auto", order=4, source=u_polar)
    return Workload("solve_c", b.commands, b.files, min_commands=200)


NOISE_POLAR_CFG = """\
# semi-convergence on noisy radial data
[study]
kind = noise
geometry = polar
profile = gaussian:a=1
tau = 0.3
seed = 20250808
variants = PI-A

[grid]
lo = 0
hi = 8
n = 201

[sweep]
orders = 0:24:2
deltas = 0, 1e-3
betas = 0.8
"""

CLASSICAL_CFG = """\
# moment series versus the derivative baseline on identical noisy data
[study]
kind = classical_compare
geometry = line
profile = gaussian:a=1
tau = 0.3
seed = 20250808

[grid]
lo = -8
hi = 8
n = 401

[sweep]
orders = 0:20:2
deltas = 0, 1e-4, 1e-3
betas = 0.6
"""

BETA_MAP_POLAR_CFG = """\
# stability map of the shifted-scale direct radial series over beta
[study]
kind = beta_map
geometry = polar
profile = gaussian:a=4
tau = 0.3
variants = PD-B

[sweep]
orders = 40
betas = 0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2
"""

CONVERGENCE_LINE_CFG = """\
# convergence in truncation order for the direct line series
[study]
kind = convergence
geometry = line
profile = mixture:[a=0.9,center=-0.5,amp=1; a=1.4,center=0.7,amp=0.7]
tau = 0.5

[sweep]
orders = 0:40:4
"""


def studies(workdir: str, root: str) -> Workload:
    b = _Mix(workdir)
    shipped = lambda name: os.path.join(root, "scripts", "configs", name)  # noqa: E731
    orders = tuple(range(0, 41, 4))
    betas = (0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2)
    b.study("beta-map-line", shipped("beta_map_line.cfg"), functools.partial(
        checks.check_beta_map, width_a=4.0, tau=0.3, betas=betas, order=40))
    b.study("noise-line", shipped("noise_line.cfg"), functools.partial(
        checks.check_noise, variants=("CI-A", "CI-classical"), deltas=(0.0, 1e-3), n_rows=2 * 2 * 23))
    b.study("convergence-polar", shipped("convergence_polar.cfg"), functools.partial(
        checks.check_convergence, variants=("PD-A", "PD-B", "PD-C"), orders=orders, final_tol=1e-10))
    b.study("noise-polar", b.text("noise_polar.cfg", NOISE_POLAR_CFG), functools.partial(
        checks.check_noise, variants=("PI-A",), deltas=(0.0, 1e-3), n_rows=2 * 13))
    b.study("classical-compare", b.text("classical_compare.cfg", CLASSICAL_CFG), functools.partial(
        checks.check_classical_compare, deltas=(0.0, 1e-4, 1e-3), n_rows=2 * 3 * 11))
    b.study("convergence-line", b.text("convergence_line.cfg", CONVERGENCE_LINE_CFG), functools.partial(
        checks.check_convergence, variants=("CD-A", "CD-B", "CD-C"), orders=orders, final_tol=1e-10))
    b.study("beta-map-polar", b.text("beta_map_polar.cfg", BETA_MAP_POLAR_CFG), functools.partial(
        checks.check_beta_map, width_a=4.0, tau=0.3, betas=betas, order=40))
    for mode in ("oracle_validated", "paper_literal"):
        b.commands.append(Command(
            f"validate-{mode}", ("validate", "--constants-mode", mode),
            functools.partial(checks.check_validate, mode=mode)))
    return Workload("studies", b.commands, b.files, min_commands=60)


def build(name: str, workdir: str, root: str) -> Workload:
    if name == "solve_ab":
        return solve_ab(workdir)
    if name == "solve_c":
        return solve_c(workdir)
    if name == "studies":
        return studies(workdir, root)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("solve_ab", "solve_c", "studies")
