import dataclasses
import math

import numpy as np
import pytest

from heatseries.experiments import (
    GridGeom,
    StudyConfig,
    _errors,
    _norms,
    expected_audit_statuses,
    run_audit,
    run_beta_map,
    run_classical_compare,
    run_convergence,
    run_noise_study,
    run_study,
)
from heatseries.profiles import Gaussian


def rows_equal(a, b, ignore_timing=True):
    """Whether two reports have the same rows, field for field (runtimes only
    when ignore_timing is off)."""
    if len(a.rows) != len(b.rows):
        return False
    for row_a, row_b in zip(a.rows, b.rows):
        fields_a = (row_a.variant, row_a.n, row_a.beta, row_a.delta, row_a.error_l2, row_a.error_max,
                    row_a.diverged, row_a.status)
        fields_b = (row_b.variant, row_b.n, row_b.beta, row_b.delta, row_b.error_l2, row_b.error_max,
                    row_b.diverged, row_b.status)
        if fields_a != fields_b:
            return False
        if not ignore_timing and row_a.runtime_ms != row_b.runtime_ms:
            return False
    return True


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(study_kind="bogus")
    with pytest.raises(ValueError):
        StudyConfig(study_kind="noise", geometry="spherical")
    with pytest.raises(ValueError):
        StudyConfig(study_kind="noise", n_range=())
    with pytest.raises(ValueError):
        StudyConfig(study_kind="beta_map", beta_range=())
    with pytest.raises(ValueError):
        GridGeom(1.0, 1.0, 10)
    for lo, hi in ((-8.0, math.inf), (-math.inf, 8.0), (math.nan, 8.0), (-math.inf, math.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            GridGeom(lo, hi, 401)
    with pytest.raises(ValueError, match="orders"):
        StudyConfig(study_kind="convergence", n_range=(-2, 4))
    for deltas in ((-1e-3,), (0.0, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="deltas"):
            StudyConfig(study_kind="noise", delta_range=deltas)
    # a beta map measures each variant against the truth of its own direction
    StudyConfig(study_kind="beta_map", variants=("CD-B", "CI-A"), beta_range=(0.5, 1.0))
    StudyConfig(study_kind="beta_map", geometry="polar", variants=("PI-B", "PD-A"), beta_range=(0.5, 1.0))


@pytest.mark.parametrize(
    "config",
    [
        StudyConfig(study_kind="audit"),
        StudyConfig(study_kind="convergence", n_range=(0, 2), variants=("CD-A",)),
        StudyConfig(study_kind="beta_map", n_range=(2,), beta_range=(0.8,), variants=("CD-B",)),
        StudyConfig(study_kind="noise", geometry="polar", n_range=(0, 2), delta_range=(1e-3,),
                    grid=GridGeom(0.0, 6.0, 41)),
        StudyConfig(study_kind="classical_compare", n_range=(0, 2), delta_range=(0.0,), grid=GridGeom(-6.0, 6.0, 41)),
    ],
    ids=lambda config: config.study_kind,
)
def test_metadata_records_every_config_field(config):
    # the CLI header promises metadata sufficient to re-run a study: every
    # knob of StudyConfig must be echoed, so none can change results unseen
    report = run_study(config)
    missing = {f.name for f in dataclasses.fields(StudyConfig)} - set(report.metadata)
    assert not missing


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(study_kind="audit", geometry="polar", tau=9.0, variants=("PD-A",), beta_range=(0.1, 0.2), seed=5),
         "an audit reads only constants_mode, got geometry = 'polar'"),
        (dict(study_kind="audit", tau=9.0), "an audit reads only constants_mode, got tau = 9.0"),
        (dict(study_kind="convergence", seed=3), "a convergence study reads no seed, deltas or [grid] key, got seed"),
        (dict(study_kind="convergence", grid=GridGeom(-6.0, 6.0, 41)),
         "a convergence study reads no seed, deltas or [grid] key, got grid"),
        (dict(study_kind="beta_map", beta_range=(0.5,), delta_range=(0.0,)),
         "a beta_map study reads no seed, deltas or [grid] key, got delta_range"),
    ],
    ids=["audit", "audit-tau", "convergence-seed", "convergence-grid", "beta-map-deltas"],
)
def test_a_study_config_rejects_a_field_its_kind_drops(config, message):
    # the library used to run the study and echo the unread values in its
    # metadata, as a config file did before it named the key
    with pytest.raises(ValueError) as exc:
        StudyConfig(**config)
    assert str(exc.value).startswith(message)


def test_a_dropped_field_at_its_default_passes():
    # the geometry's study grid is the default of grid, so a copy of a
    # config, as run_beta_map makes, passes
    config = StudyConfig(study_kind="beta_map", geometry="polar", n_range=(0, 2), beta_range=(0.8,),
                         variants=("PD-B",))
    assert dataclasses.replace(config, n_range=(2,)).grid == GridGeom(0.0, 8.0, 401)
    StudyConfig(study_kind="convergence", seed=20250808, delta_range=(0.0, 1e-3), grid=GridGeom(-8.0, 8.0, 401))
    StudyConfig(study_kind="audit", constants_mode="paper_literal", profile=Gaussian(width_a=1.0))
    report = run_beta_map(config)
    assert [(r.variant, r.n, r.beta, r.status) for r in report.rows] == [("PD-B", 2, 0.8, "ok")]


def test_audit_passes_in_oracle_mode():
    report = run_audit(StudyConfig(study_kind="audit"))
    statuses = {row.variant: row.status for row in report.rows}
    assert statuses == expected_audit_statuses("oracle_validated")
    # every exact-truncation row sits at the certification tolerance
    for row in report.rows:
        if row.n in (0, 1, 2) and row.variant != "CI-B":
            assert row.error_max <= 1e-9


def test_audit_literal_mode_fails_exactly_the_c_variants():
    report = run_audit(StudyConfig(study_kind="audit", constants_mode="paper_literal"))
    statuses = {row.variant: row.status for row in report.rows}
    assert statuses == expected_audit_statuses("paper_literal")
    ratios = report.metadata["literal_value_ratios"]
    s = 1.5  # tau + beta of the C-variant audit configuration (direct)
    assert ratios["CD-C"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert ratios["PD-C"] == pytest.approx(math.pi**1.5 * math.sqrt(s), rel=1e-12)
    # the published CI-C constants coincide with the validated ones at j = 0,
    # so the truncated-value ratio at the matched scale is exactly 1; the
    # failure shows in the full-order off-center check instead
    assert ratios["CI-C"] == pytest.approx(1.0, rel=1e-12)
    assert ratios["PI-C"] == pytest.approx(math.pi**1.5 * 1.0 / math.sqrt(0.3), rel=1e-12)


def test_noise_study_classical_amplification_and_u_shape():
    cfg = StudyConfig(
        study_kind="noise",
        geometry="line",
        n_range=tuple(range(0, 45, 2)),
        delta_range=(0.0, 1e-3),
    )
    report = run_noise_study(cfg)
    errs = {(r.variant, r.delta, r.n): r.error_l2 for r in report.rows if r.status == "ok"}
    assert errs[("CI-classical", 1e-3, 20)] >= 10.0 * errs[("CI-classical", 1e-3, 6)]
    summary = report.metadata["semi_convergence"]
    ci = summary["CI-A@delta=0.001"]
    assert ci["u_shape"] is True
    assert 2 <= ci["n_star"] <= 40
    # divergent rows are marked, never dropped
    assert len(report.rows) == 2 * 2 * len(cfg.n_range)
    late = [r for r in report.rows if r.variant == "CI-classical" and r.delta == 1e-3 and r.n >= 40]
    assert all(math.isfinite(r.error_l2) or "error" in r.status for r in late)


def test_noise_study_polar_u_shape():
    cfg = StudyConfig(
        study_kind="noise",
        geometry="polar",
        n_range=tuple(range(0, 45, 2)),
        delta_range=(1e-3,),
    )
    report = run_noise_study(cfg)
    summary = report.metadata["semi_convergence"]["PI-A@delta=0.001"]
    assert summary["u_shape"] is True
    assert 2 <= summary["n_star"] <= 40


def test_noise_study_determinism():
    cfg = dict(
        study_kind="noise",
        geometry="line",
        n_range=(0, 6, 12),
        delta_range=(1e-3,),
        seed=424242,
    )
    a = run_noise_study(StudyConfig(**cfg))
    b = run_noise_study(StudyConfig(**cfg))
    assert rows_equal(a, b)
    assert a.metadata["semi_convergence"] == b.metadata["semi_convergence"]
    c = run_noise_study(StudyConfig(**{**cfg, "seed": 7}))
    assert not rows_equal(a, c)


def test_classical_compare_converges_at_zero_noise():
    cfg = StudyConfig(
        study_kind="classical_compare",
        geometry="line",
        n_range=tuple(range(0, 25, 2)),
        delta_range=(0.0,),
    )
    report = run_classical_compare(cfg)
    assert report.study_kind == "classical_compare"
    for variant in ("CI-A", "CI-classical"):
        best = min(
            r.error_l2 for r in report.rows if r.variant == variant and r.status == "ok"
        )
        assert best <= 1e-2
    with pytest.raises(ValueError):
        run_classical_compare(
            StudyConfig(study_kind="classical_compare", geometry="polar")
        )


def test_convergence_study_cd_c_decays_to_floor():
    cfg = StudyConfig(
        study_kind="convergence",
        geometry="line",
        n_range=(0, 4, 10, 20, 40),
        variants=("CD-C",),
    )
    report = run_convergence(cfg)
    errs = [r.error_max for r in report.rows]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-10


def test_beta_map_shows_stability_transition():
    # a profile wide against the horizon: the shifted-scale series diverges
    # for small beta and stabilizes once beta crosses the boundary
    cfg = StudyConfig(
        study_kind="beta_map",
        geometry="line",
        profile=Gaussian(width_a=4.0),
        tau=0.3,
        n_range=(40,),
        beta_range=(0.6, 1.0, 1.4, 1.8, 2.2, 2.6, 3.0),
        variants=("CD-B",),
    )
    report = run_beta_map(cfg)
    flags = [r.diverged for r in report.rows]
    assert flags[0] is True and flags[-1] is False
    assert any(a and not b for a, b in zip(flags, flags[1:]))  # a visible boundary
    # errors fall steeply across the boundary: flagged rows are useless,
    # deep inside the region the truncation is at the quadrature floor
    assert report.rows[0].error_max > 1.0
    assert report.rows[-1].error_max <= 1e-10


def test_run_study_dispatch_and_row_ordering():
    report = run_study(StudyConfig(study_kind="convergence", n_range=(4, 0, 20)))
    keys = [(r.variant, r.n, r.beta, r.delta) for r in report.rows]
    assert keys == sorted(keys)
    assert report.metadata["prng"] == "numpy-PCG64"
    assert report.metadata["library_version"]


def test_each_rows_errors_are_those_of_the_row_alone():
    # a sweep takes every order's errors from one difference matrix: each
    # row's l2 error has np.linalg.norm's bits, its max error np.max's, at
    # grid sizes around the dot product's unrolled blocks, and an
    # overflowing square reads inf without a warning
    rng = np.random.default_rng(2)
    for points in (1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 33, 61, 121, 401, 1000):
        truth = rng.normal(size=points)
        values = truth + rng.normal(size=(6, points)) * 10.0 ** rng.integers(-12, 0, size=(6, 1))
        values[5, 0] = 1.7e308 if truth[0] < 0 else -1.7e308
        norms = _norms(truth)
        l2, max_ = _errors(values, truth, norms)
        assert len(l2) == len(max_) == 6 and math.isinf(l2[5])
        for row, got_l2, got_max in zip(values, l2, max_):
            with np.errstate(over="ignore"):
                d = row - truth
                assert got_l2 == float(np.linalg.norm(d)) / norms[0]
                assert got_max == float(np.max(np.abs(d))) / norms[1]
