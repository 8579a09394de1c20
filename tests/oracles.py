"""Test oracles: the checks only the test suite runs against the
package, and the scenario stand-in the solver tests build.

spectral_derivative and dispersion_residual certify the linear flow,
companion_consistency_residual the companion pairings, and miura_check
the KdV/mKdV coupling identity (acceptance criterion 6), each through
the package's own evolve, pairings and solve_samples.
full_grid_study_errors is the residual study measured on every level's
whole refined grid, the reference for the footprints a study solves.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from hankelpde.cli import _nanmax_abs, _refine_axis
from hankelpde.companion import companion_parameters
from hankelpde.dispersion import _multiply
from hankelpde.equations import _tr, _uniform_step, residuals
from hankelpde.fredholm import (PatchError, evaluate_solution, make_quadrature, pairings,
                                quadrature_rules, solve_samples)
from hankelpde.gridkernel import sample_profile
from hankelpde.kinds import resolve_kind


def scenario_stub(grid, initial, n=1, m=1, outputs=("center", "slices"), **kw):
    """A scenario's fields, its data p0 sampled as parse_scenario samples it."""
    base = dict(kind=resolve_kind("local_nls"), richardson=False, outputs=outputs,
                tolerances={"patch_threshold": 1e-8, "solver_tol": 1e-10})
    base.update(kw)
    return SimpleNamespace(p0=sample_profile(initial, grid, n, m), **base)


def spectral_derivative(p, order=1):
    """Exact d^order/ds^order of a profile on its grid."""
    return _multiply(p, lambda z: z ** order, real=True)


def dispersion_residual(profiles, ts, params):
    """Max norm of dp/dt - mu1 p_ss - mu2 p_sss over interior snapshots.

    Takes a family of >= 3 profiles and the uniformly spaced times ts
    they belong to; the time derivative is a centered difference across
    neighbouring snapshots, the space derivatives are exact spectral
    ones, so the result decays like dt^2 when the family really solves
    the linear equation.
    """
    if len(profiles) < 3:
        raise ValueError("need at least 3 snapshots, got %d" % len(profiles))
    dts = np.diff(np.asarray(ts, dtype=float))
    dt = dts[0]
    if dt <= 0 or not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ValueError("snapshots must be at uniformly increasing times")
    worst = 0.0
    for j in range(1, len(profiles) - 1):
        dpdt = (profiles[j + 1].samples - profiles[j - 1].samples) / (2.0 * dt)
        rhs = (params.mu1 * spectral_derivative(profiles[j], 2).samples
               + params.mu2 * spectral_derivative(profiles[j], 3).samples)
        worst = max(worst, float(np.abs(dpdt - rhs).max()))
    return worst


def companion_consistency_residual(p0, kind, params, t_samples):
    """Finite-difference residual of the companion linear flow.

    Builds the companion family over t_samples and measures how well it
    satisfies dp~/dt = -mu1 p~_ss + mu2 p~_sss (companion parameters).
    Small values certify the kind/parameter pairing.
    """
    if len(t_samples) < 3:
        raise ValueError("need at least 3 time samples, got %d" % len(t_samples))
    family = [ptil for _, ptil in pairings(p0, params, kind, t_samples)]
    return dispersion_residual(family, t_samples, companion_parameters(kind, params))


def miura_check(p0, quad, xs, ts, richardson=False):
    """Max defect of the KdV/mKdV coupling identity.

    From the same symmetric square profile, evolved under the
    third-order flow, solve the mKdV system (companion -p^T, so the
    composed kernel is -P.P) and the primitive KdV system (Q = -P), and
    measure d<G_kdv>/dx - d<G_mkdv>/dx - <G_mkdv>^2 with centered x
    differences.  Second-order accurate in the x step and quadrature.
    A sample whose det2 falls below the patch threshold raises PatchError.
    """
    sym_err = np.abs(p0.samples - _tr(p0.samples)).max()
    scale = max(np.abs(p0.samples).max(), 1.0)
    if sym_err > 1e-12 * scale:
        raise ValueError("miura_check needs matrix-symmetric data "
                         "(defect %g)" % sym_err)
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    dx = _uniform_step(xs, "x", minimum=3)
    rules = quadrature_rules(quad, richardson)
    mkdv = resolve_kind("local_mkdv")

    worst = 0.0
    for t, (p_t, ptil) in zip(ts, pairings(p0, mkdv.params, mkdv.companion, ts)):
        gm = np.empty((xs.size, p0.rows, p0.cols), dtype=complex)
        gk = np.empty_like(gm)
        for g, pairing in ((gm, ptil), (gk, None)):
            for ix, (x, edges) in enumerate(zip(xs, solve_samples(p_t, pairing, xs, rules))):
                if edges.row is None:
                    raise PatchError(edges.det2, x, t)
                g[ix] = edges.row[-1]
        dgk = (gk[2:] - gk[:-2]) / (2.0 * dx)
        dgm = (gm[2:] - gm[:-2]) / (2.0 * dx)
        defect = dgk - dgm - gm[1:-1] @ gm[1:-1]
        worst = max(worst, float(np.abs(defect).max()))
    return worst


def full_grid_study_errors(scenario, levels=3):
    """The residual study's per-level errors, each level solving its
    whole refined (x, t) grid: the residual's largest entry over the base
    interior samples, base sample j at refined index j f (f = 2^level)
    less the two-layer stencil trim."""
    p0, xs, ts = scenario.p0, scenario.xs, scenario.ts
    errors = []
    for lev in range(levels):
        f = 2 ** lev
        quad = make_quadrature(scenario.quad.truncation, scenario.quad.intervals * f,
                               p0.grid.spacing)
        field, _ = evaluate_solution(replace(scenario, quad=quad, outputs=("center",),
                                             xs=_refine_axis(xs, f), ts=_refine_axis(ts, f)))
        R = np.max([np.abs(F).max(axis=(-1, -2)) for _, fields
                    in residuals(scenario.kind, field) for F in fields], axis=0)
        it_in = f * np.arange(2, ts.size - 2) - 2
        ix_in = f * np.arange(2, xs.size - 2) - 2
        errors.append(_nanmax_abs(R[np.ix_(it_in, ix_in)]))
    return errors
