"""Spans around the public entry points of each heatseries module.

`install` replaces each entry point with a wrapper wherever a heatseries
module has bound it (module globals and dicts held in module globals, such
as a dispatch table), and `Tracer.uninstall` puts the originals back.  The
program's files are never touched.

A span records its name, start, end, parent and an optional count (points,
values, nodes or rows).  Spans stay in memory until the run ends.  Self time
is a span's duration minus the durations of its direct children.  A span
directly inside a span of the same name (a public function calling another
one of the same layer) is left out of inclusive sums and counts, so nothing
is counted twice.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

MODULES = ("cli", "profiles", "specfun", "quad", "kernels", "series_cartesian", "series_polar", "experiments")
SERIES = ("series_cartesian", "series_polar")


def _size(x) -> int:
    return int(np.size(x))


def _values(n, z, *_, **__) -> int:
    return (int(n) + 1) * _size(z)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.child_time: list = []
        self.counts: list = []
        self._stack: list = []
        self._undo: list = []

    # --- recording -----------------------------------------------------------

    def open(self, name: str, count: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(count)
        self.child_time.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[idx]

    def wrap(self, name, fn, count=None, count_result=None):
        """fn inside a span; name may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            idx = tracer.open(span, count(*args, **kwargs) if count else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count_result is not None:
                tracer.counts[idx] = count_result(result)
            return result

        return wrapper

    def _wrap_integrate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def integrate_vec(f, *args, **kwargs):
            counted = tracer.wrap("quad.integrand", f, count=lambda nodes: _size(nodes))
            return tracer.wrap("quad.integrate_vec", fn)(counted, *args, **kwargs)

        return integrate_vec

    # --- installing ----------------------------------------------------------

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            space = vars(module)
            for key, val in list(space.items()):
                if val is original:
                    space[key] = replacement
                    self._undo.append((space, key, original))
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            val[dkey] = replacement
                            self._undo.append((val, dkey, original))

    def install(self) -> None:
        mods = {name: sys.modules[f"heatseries.{name}"] for name in MODULES}
        every = list(mods.values()) + [sys.modules["heatseries"]]
        sweep = mods["experiments"]._sweep_orders
        polar = set(mods["series_polar"].PD_VARIANTS + mods["series_polar"].PI_VARIANTS)

        def solve_name(variant, *_, **__):
            if variant == "CI-classical":
                return "series_cartesian.classical"
            return "series_polar.solve" if variant in polar else "series_cartesian.solve"

        def rows(report) -> int:
            return len(report.rows)

        targets = [
            ("cli", "main", "cli.main", None, None),
            ("profiles", "estimate_scale_line", "profiles.scale_estimate", None, None),
            ("profiles", "estimate_scale_polar", "profiles.scale_estimate", None, None),
            ("specfun", "hermite_batch", "specfun.hermite", _values, None),
            ("specfun", "w_poly_batch", "specfun.w_poly", _values, None),
            ("specfun", "bessel_i0", "specfun.bessel", lambda x: _size(x), None),
            ("specfun", "bessel_i0_scaled", "specfun.bessel", lambda x: _size(x), None),
            ("specfun", "bessel_j0", "specfun.bessel", lambda x: _size(x), None),
            ("kernels", "forward_line", "kernels.forward", lambda d, t, x, *a, **k: _size(x), None),
            ("kernels", "forward_polar", "kernels.forward", lambda d, t, x, *a, **k: _size(x), None),
            ("series_cartesian", "cd_coeffs", "series_cartesian.coeffs", None, None),
            ("series_cartesian", "ci_coeffs", "series_cartesian.coeffs", None, None),
            ("series_cartesian", "cd_eval", "series_cartesian.eval", lambda v, c, p, x, *a, **k: _size(x), None),
            ("series_cartesian", "ci_eval", "series_cartesian.eval", lambda v, c, p, x, *a, **k: _size(x), None),
            ("series_cartesian", "ci_classical", "series_cartesian.eval", lambda u, t, n, x, *a, **k: _size(x), None),
            ("series_cartesian", "solve_grid_line", solve_name, None, None),
            ("series_polar", "pd_coeffs", "series_polar.coeffs", None, None),
            ("series_polar", "pi_coeffs", "series_polar.coeffs", None, None),
            ("series_polar", "pd_eval", "series_polar.eval", lambda v, c, p, r, *a, **k: _size(r), None),
            ("series_polar", "pi_eval", "series_polar.eval", lambda v, c, p, r, *a, **k: _size(r), None),
            ("series_polar", "solve_grid_polar", solve_name, None, None),
        ]
        for name in ("run_study", "run_audit", "run_convergence", "run_beta_map",
                     "run_noise_study", "run_classical_compare"):
            targets.append(("experiments", name, "experiments.run", None, rows))
        for module, attr, span, count, count_result in targets:
            original = getattr(mods[module], attr)
            self._rebind(every, original, self.wrap(span, original, count, count_result))
        original = mods["quad"].integrate_vec
        self._rebind(every, original, self._wrap_integrate(original))
        # an order sweep is one grid solve: one coefficient pass for A/B,
        # one per grid point for C (the sweep itself is a generator)
        self._rebind(every, sweep, self.wrap(solve_name, sweep))
        sampled = mods["profiles"].Sampled1D
        original = sampled.__call__
        sampled.__call__ = self.wrap("profiles.sampled_eval", original, lambda self_, x: _size(x))
        self._undo.append((None, sampled, original))

    def uninstall(self) -> None:
        for space, key, original in reversed(self._undo):
            if space is None:
                key.__call__ = original
            else:
                space[key] = original
        self._undo.clear()

    # --- summarising ---------------------------------------------------------

    def metrics(self, commands: int) -> dict:
        """Per-layer figures per command, from the spans recorded so far."""
        names, parents, counts = self.names, self.parents, self.counts
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        self_ms = {}
        incl_ms = {}
        total = {}
        calls = {}
        for i, name in enumerate(names):
            self_ms[name] = self_ms.get(name, 0.0) + dur[i] - self.child_time[i]
            p = parents[i]
            if p >= 0 and names[p] == name:
                continue
            incl_ms[name] = incl_ms.get(name, 0.0) + dur[i]
            total[name] = total.get(name, 0) + counts[i]
            calls[name] = calls.get(name, 0) + 1
        # nodes of the accepted refinement level: the last integrand call of
        # each integrate_vec call
        last_child = {}
        for i, name in enumerate(names):
            if name == "quad.integrand":
                last_child[parents[i]] = counts[i]
        final_nodes = sum(last_child.values())

        per = 1.0 / commands
        ms = lambda d, key: 1e3 * d.get(key, 0.0) * per  # noqa: E731
        out = {
            "cli.self_ms": ms(self_ms, "cli.main"),
            "profiles.scale_estimate_ms": ms(incl_ms, "profiles.scale_estimate"),
            "profiles.sampled_eval_ms": ms(incl_ms, "profiles.sampled_eval"),
            "profiles.sampled_eval_points": total.get("profiles.sampled_eval", 0) * per,
        }
        for short in ("hermite", "w_poly", "bessel"):
            out[f"specfun.{short}_ms"] = ms(incl_ms, f"specfun.{short}")
            out[f"specfun.{short}_values"] = total.get(f"specfun.{short}", 0) * per
        nodes = total.get("quad.integrand", 0)
        out.update({
            "quad.calls": calls.get("quad.integrate_vec", 0) * per,
            "quad.integrand_nodes": nodes * per,
            "quad.final_level_share": final_nodes / nodes if nodes else 0.0,
            "quad.self_ms": ms(self_ms, "quad.integrate_vec"),
            "quad.integrand_ms": ms(incl_ms, "quad.integrand"),
            "kernels.forward_ms": ms(incl_ms, "kernels.forward"),
            "kernels.forward_points": total.get("kernels.forward", 0) * per,
        })
        for mod in SERIES:
            passes = calls.get(f"{mod}.coeffs", 0)
            solves = calls.get(f"{mod}.solve", 0)
            out.update({
                f"{mod}.coeff_passes": passes * per,
                f"{mod}.passes_per_solve": passes / solves if solves else 0.0,
                f"{mod}.coeffs_ms": ms(incl_ms, f"{mod}.coeffs"),
                f"{mod}.eval_self_ms": ms(self_ms, f"{mod}.eval"),
                f"{mod}.eval_points": total.get(f"{mod}.eval", 0) * per,
            })
        out["experiments.self_ms"] = ms(self_ms, "experiments.run")
        out["experiments.rows"] = total.get("experiments.run", 0) * per
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("span,name,parent,start_s,end_s,count\n")
            for i, name in enumerate(self.names):
                handle.write(f"{i},{name},{self.parents[i]},{self.starts[i]:.9f},{self.ends[i]:.9f},{self.counts[i]}\n")
