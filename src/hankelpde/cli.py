"""Scenario files, pipeline runs, convergence studies, and the CLI.

Scenario files are YAML.  A minimal one:

    name: rank-one-nls
    kind: local_nls
    dims: [1, 1]
    initial: {kind: exponential, amplitude: 1.0, rate: 1.0}
    grid: {X: 20.0, M: 640}
    quadrature: {L: 8.0, N: 64}
    samples:
      x: {start: -1.0, stop: 1.0, count: 9}
      t: {start: -0.5, stop: 0.5, count: 9}

Tolerances (decay_tol, patch_threshold, solver_tol) resolve as module
defaults < the scenario file's tolerances section, so the manifest's
scenario block reproduces the run.
Output tables are tab-separated with %.17g floats, so identical
scenarios produce bitwise-identical tables regardless of --threads.
floatfmt.write_table writes every table: run hands it the key axes and
the numbers of each line as floats (a complex entry as re, im).
"""

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import __version__
from .dispersion import GrowthError, evolve
from .equations import (
    is_uniform,
    product_rule_check,
    residuals,
    sample_steps,
    stencil_reach,
    u_identity_check,
)
from .floatfmt import write_table
from .fredholm import (
    PATCH_THRESHOLD,
    SOLVER_TOL,
    PatchError,
    Run,
    evaluate_solution,
    make_quadrature,
    paired_Q,
    pairings,
    quadrature_rules,
)
from .gridkernel import (
    DECAY_TOL,
    InitialDataSpec,
    make_uniform_grid,
    sample_profile,
)
from .kinds import resolve_kind
from .lapack import lu_path, one_blas_thread

_OUTPUT_KINDS = ("center", "slices", "det2", "residuals")
_DATA_KINDS = ("gaussian", "exponential_step", "exponential", "tabulated")
# largest N*m a convergence study may reach at its finest level
STUDY_GUARD = 4096


@dataclass
class Scenario:
    """Validated run description; evaluate_solution consumes it directly.

    p0 is the initial data sampled on the master grid, the one source of
    the block shape (p0.rows, p0.cols) and the grid (p0.grid) every
    command reads.
    """

    kind: object
    p0: object = field(repr=False)
    quad: object
    xs: np.ndarray
    ts: np.ndarray
    outputs: tuple
    tolerances: dict
    richardson: bool = False
    raw: dict = field(default=None, repr=False)


def _finite(value, label, shown):
    """value; an inf or a nan in it is a one-line ValueError naming shown."""
    if not np.all(np.isfinite(value)):
        raise ValueError("%s must be finite, got %r" % (label, shown))
    return value


def _parse_complex(value, label):
    number = value
    if isinstance(value, str):
        try:
            number = complex(value.replace("i", "j").replace(" ", ""))
        except ValueError:
            number = None
    if not isinstance(number, (int, float, complex)):
        raise ValueError("cannot parse %s value %r" % (label, value))
    return _finite(complex(number), label, value)


def _number(value, label, kind=float):
    """value converted by kind (float or int); anything that does not
    convert (None and lists included), an inf, a nan, or for int anything
    but a whole number (a bool or a string) is a one-line ValueError."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s must be a number, got %r" % (label, value))
    if kind is int and (out != value or isinstance(value, bool)):
        raise ValueError("%s must be a whole number, got %r" % (label, value))
    return _finite(out, label, value) if kind is float else out


def _axis(start, stop, count):
    """count evenly spaced values from start to stop; when start == -stop
    each value is exactly the negative of its mirror (linspace alone can
    miss by an ulp)."""
    vals = np.linspace(start, stop, count)
    return (vals - vals[::-1]) / 2.0 if start == -stop and count > 1 else vals


def _sample_axis(section, label):
    if isinstance(section, (list, tuple)):
        try:
            vals = np.asarray(section, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("samples.%s must be a list of numbers, got %r"
                             % (label, section))
        _finite(vals, "samples.%s" % label, section)
    elif isinstance(section, dict):
        missing = {"start", "stop", "count"} - set(section)
        if missing:
            raise ValueError("samples.%s needs start/stop/count, missing %s"
                             % (label, sorted(missing)))
        count = _number(section["count"], "samples.%s.count" % label, int)
        if count < 1:
            raise ValueError("samples.%s count must be >= 1" % label)
        vals = _axis(_number(section["start"], "samples.%s.start" % label),
                     _number(section["stop"], "samples.%s.stop" % label), count)
    else:
        raise ValueError("samples.%s must be a list or start/stop/count" % label)
    if vals.size == 0:
        raise ValueError("samples.%s is empty" % label)
    return vals


def _resolve_tolerances(file_tols):
    tols = {"decay_tol": DECAY_TOL, "patch_threshold": PATCH_THRESHOLD,
            "solver_tol": SOLVER_TOL}
    if file_tols is None:
        file_tols = {}
    if not isinstance(file_tols, dict):
        raise ValueError("tolerances must be a mapping, got %r" % (file_tols,))
    for key, val in file_tols.items():
        if key not in tols:
            raise ValueError("unknown tolerance %r (expected one of %s)"
                             % (key, sorted(tols)))
        tols[key] = _number(val, "tolerances.%s" % key)
        if not tols[key] > 0:
            raise ValueError("tolerances.%s must be positive, got %r" % (key, val))
    return tols


def _initial_from_section(section):
    if not isinstance(section, dict) or "kind" not in section:
        raise ValueError("initial data section must set a kind")
    kind = section["kind"]
    if kind not in _DATA_KINDS:
        raise ValueError("unknown initial data kind %r (expected one of %s)"
                         % (kind, list(_DATA_KINDS)))
    amp = section.get("amplitude")
    if amp is not None and not isinstance(amp, (list, tuple)):
        amp = [[_parse_complex(amp, "amplitude")]]
    elif amp is not None:
        amp = [[_parse_complex(v, "amplitude") for v in np.atleast_1d(row)]
               for row in amp]
    values = section.get("values")
    if values is not None:
        try:
            values = np.asarray(values, dtype=complex)
        except (TypeError, ValueError):
            raise ValueError("initial.values must be an array of numbers")
    width = section.get("width")
    rate = section.get("rate")
    return InitialDataSpec(kind=kind, amplitude=amp,
                           width=None if width is None else _number(width, "initial.width"),
                           center=_number(section.get("center", 0.0), "initial.center"),
                           rate=None if rate is None else _number(rate, "initial.rate"),
                           values=values)


def _check_on_grid(grid, quad, xs):
    """Refuse x samples whose Hankel arguments miss the master nodes."""
    for x in xs:
        grid.node_index(x)
        grid.node_index(x - 2.0 * quad.truncation)


def _section(raw, key, needed):
    sec = raw[key]
    missing = [k for k in needed if not (isinstance(sec, dict) and k in sec)]
    if missing:
        raise ValueError("%s section needs %s, missing %s"
                         % (key, "/".join(needed), missing))
    return sec


def parse_scenario(path):
    """Load and validate a scenario file."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ValueError("scenario file %s is not valid YAML: %s"
                             % (path, str(err).replace("\n", " ")))
    if not isinstance(raw, dict):
        raise ValueError("scenario file %s is not a key-value document" % path)
    for key in ("kind", "initial", "grid", "quadrature", "samples"):
        if key not in raw:
            raise ValueError("scenario is missing the %r section" % key)

    mu1 = raw.get("mu1")
    mu2 = raw.get("mu2")
    kind = resolve_kind(raw["kind"],
                        sign=_number(raw.get("sign", 1), "sign", int),
                        flavor=raw.get("flavor", "real"),
                        mu1=None if mu1 is None else _parse_complex(mu1, "mu1"),
                        mu2=None if mu2 is None else _parse_complex(mu2, "mu2"))

    dims = raw.get("dims", [1, 1])
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(type(d) is int and d >= 1 for d in dims)):
        raise ValueError("dims must be a pair of positive integers, got %r" % (dims,))
    n, m = int(dims[0]), int(dims[1])
    if kind.needs_square and n != m:
        raise ValueError("kind %r needs square data, got dims (%d, %d)"
                         % (kind.name, n, m))

    initial = _initial_from_section(raw["initial"])

    gsec = _section(raw, "grid", ("X", "M"))
    grid = make_uniform_grid(_number(gsec["X"], "grid.X"), _number(gsec["M"], "grid.M", int))
    qsec = _section(raw, "quadrature", ("L", "N"))
    quad = make_quadrature(_number(qsec["L"], "quadrature.L"),
                           _number(qsec["N"], "quadrature.N", int), grid.spacing)

    samples = _section(raw, "samples", ("x", "t"))
    xs = _sample_axis(samples["x"], "x")
    ts = _sample_axis(samples["t"], "t")
    if initial.kind in ("exponential_step", "exponential") and kind.reflect_x:
        raise ValueError("space-reversed pairings reflect the profile, and a "
                         "reflected exponential grows on the quadrature "
                         "window; use localized data for kind %r" % kind.name)

    _check_on_grid(grid, quad, xs)

    outputs = raw.get("outputs", ["center", "det2", "residuals"])
    if not isinstance(outputs, list):
        raise ValueError("outputs must be a list, got %r" % (outputs,))
    outputs = tuple(outputs)
    for out in outputs:
        if out not in _OUTPUT_KINDS:
            raise ValueError("unknown output request %r (expected one of %s)"
                             % (out, list(_OUTPUT_KINDS)))

    if "residuals" in outputs:
        sample_steps(kind, xs, ts)

    tols = _resolve_tolerances(raw.get("tolerances"))
    richardson = raw.get("richardson", False)
    if not isinstance(richardson, bool):
        raise ValueError("richardson must be true or false, got %r" % (richardson,))
    quadrature_rules(quad, richardson)  # the 2N rule must fit the grid too

    p0 = sample_profile(initial, grid, n, m)
    if p0.exp_tag is None:
        ratio = p0.boundary_decay_ratio()
        if not ratio <= tols["decay_tol"]:
            warnings.warn("initial data boundary decay ratio %.3e exceeds %.3e; "
                          "spectral evolution may wrap around the domain"
                          % (ratio, tols["decay_tol"]))
    return Scenario(kind=kind, p0=p0, quad=quad, xs=xs, ts=ts, outputs=outputs,
                    tolerances=tols, richardson=richardson, raw=raw)


def _entry_headers(prefix, n, m):
    cols = []
    for i in range(n):
        for j in range(m):
            cols.append("re_%s%d%d" % (prefix, i, j))
            cols.append("im_%s%d%d" % (prefix, i, j))
    return cols


def _l2_norm(R, dx, dt):
    vals = np.abs(R) ** 2
    total = np.nansum(vals.reshape(vals.shape[0], vals.shape[1], -1).max(axis=2))
    return float(np.sqrt(total * dx * dt))


def _nanmax_abs(R):
    """The largest |R| over the entries that are not NaN; NaN if none is."""
    vals = np.abs(R)
    if np.all(np.isnan(vals)):
        return float("nan")
    return float(np.nanmax(vals))


def _residual_rows(scenario, field_out):
    """(name, max, l2) of each residual row, each the larger over its fields."""
    dx, dt = sample_steps(scenario.kind, scenario.xs, scenario.ts)
    return [(name, max(_nanmax_abs(R) for R in fields),
             max(_l2_norm(R, dx, dt) for R in fields))
            for name, fields in residuals(scenario.kind, field_out)]


def _finite_or_null(value):
    """value with every non-finite float, nested in dicts and lists, as
    None: strict JSON has no nan or inf, so the manifest writes null."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def run(scenario, out_dir=".", threads=1):
    """Solve the scenario and write its output files.

    Returns the exit code: 0 clean, 2 when samples were skipped (det2
    below patch_threshold, or backward error above solver_tol).
    Failures raise; the command-line wrapper maps them to 1.
    """
    os.makedirs(out_dir, exist_ok=True)
    timings = {}
    t0 = time.perf_counter()
    field_out, report = evaluate_solution(scenario, threads=threads)
    t1 = time.perf_counter()
    timings["solve_s"] = t1 - t0

    written = []
    axes, copies = (field_out.xs, field_out.ts), field_out.copies
    samples = field_out.center.shape[:2]
    if "center" in scenario.outputs:
        path = os.path.join(out_dir, "center.tsv")
        n, m = scenario.p0.rows, scenario.p0.cols
        header = ["x", "t"] + _entry_headers("g", n, m)
        values = field_out.center.reshape(samples + (-1,))
        if scenario.kind.coupled:
            header += _entry_headers("gt", m, n)
            values = np.concatenate(
                [values, field_out.center_tilde.reshape(samples + (-1,))], axis=-1)
        write_table(path, header, axes, values.view(float), copies=copies)
        written.append(path)
    if "slices" in scenario.outputs:
        for which, data in (("y", field_out.slice_y), ("z", field_out.slice_z)):
            path = os.path.join(out_dir, "slice_%s.tsv" % which)
            header = ["x", "t", "xi"] + _entry_headers("g", *data.shape[-2:])
            numbers = data.reshape(data.shape[:3] + (-1,)).view(float)
            write_table(path, header, axes + (scenario.quad.nodes,), numbers, copies=copies)
            written.append(path)
    if "det2" in scenario.outputs:
        path = os.path.join(out_dir, "det2.tsv")
        re, im = report.det2.real, report.det2.imag
        # hypot, not np.abs, gives the bits of Python's abs(complex)
        write_table(path, ["x", "t", "re_det2", "im_det2", "abs_det2"], axes,
                    np.stack([re, im, np.hypot(re, im)], axis=-1), copies=copies)
        written.append(path)
    timings["tables_s"] = time.perf_counter() - t1

    residual_rows = []
    if "residuals" in scenario.outputs:
        t1 = time.perf_counter()
        residual_rows = _residual_rows(scenario, field_out)
        timings["residuals_s"] = time.perf_counter() - t1
        path = os.path.join(out_dir, "residuals.tsv")
        with open(path, "w") as fh:
            fh.write("equation\tmax\tl2\n")
            for name, worst, l2 in residual_rows:
                fh.write("%s\t%.17g\t%.17g\n" % (name, worst, l2))
        written.append(path)

    timings["total_s"] = time.perf_counter() - t0
    code = 2 if report.any_below else 0
    manifest = {
        "tool": "hankelpde",
        "version": __version__,
        "scenario": scenario.raw,
        "tolerances": scenario.tolerances,
        "threads": threads,
        "workers": report.workers,
        "blas_threads": report.blas_threads,
        "factorisation": lu_path(),
        "timings": timings,
        "outputs": [os.path.basename(p) for p in written],
        "min_det2_modulus": report.min_modulus,
        "max_backward_error": report.max_backward_error,
        "lowrank_solves": report.lowrank_solves,
        "dense_solves": report.dense_solves,
        "max_rank": report.max_rank,
        "conjugated_rows": len(field_out.copies),
        "skipped": [[it, ix, t, x, d.real, d.imag, reason]
                    for (it, ix, t, x, d, reason) in report.skipped],
        "residuals": [[name, worst, l2] for name, worst, l2 in residual_rows],
        "exit_code": code,
    }
    mpath = os.path.join(out_dir, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(_finite_or_null(manifest), fh, indent=2, sort_keys=True, default=str,
                  allow_nan=False)
        fh.write("\n")
    return code


def _rank_one_reference(scenario):
    """Continuum centre values for scalar exponential data, or None.

    theta(x, t) and its partner theta~ are the pair fredholm.pairings
    gives.  Without space reversal the partner keeps the rate a, so the
    rank-one composition is separable, with S = 1/(2a):
    theta / (1 + theta theta~ S^2), or theta / (1 - theta S) for
    neg_identity (no partner), whose composed kernel is -P.  The returned
    reference(xs, ts) gives the values on the (t, x) sample grid.
    """
    p0, kind = scenario.p0, scenario.kind
    if p0.exp_tag is None or (p0.rows, p0.cols) != (1, 1) or kind.reflect_x:
        return None
    S = 1.0 / (2.0 * p0.exp_tag[0])

    def at(p, xs):
        rate, amp = p.exp_tag
        return amp[0, 0] * np.exp(rate * xs)

    def reference(xs, ts):
        rows = []
        for p_t, ptil in pairings(p0, kind.params, kind.companion, ts):
            th = at(p_t, xs)
            if ptil is None:
                rows.append(th / (1.0 - th * S))
            else:
                rows.append(th / (1.0 + th * at(ptil, xs) * S * S))
        return np.array(rows)

    return reference


@dataclass
class StudyLevel:
    N: int
    dx: float
    dt: float
    error: float
    skipped: int


@dataclass
class StudyReport:
    reference: str
    levels: list
    ratios: list
    fitted_order: float


def _refine_axis(vals, factor):
    return _axis(vals[0], vals[-1], (vals.size - 1) * factor + 1)


def _footprint(count, factor, reach):
    """Indexes into an axis of count base samples refined by factor that
    the residual stencils at the base interior samples read: base sample
    j at index j factor for j = 2 .. count - 3, each with reach samples
    either side."""
    base = factor * np.arange(2, count - 2)
    # a mask, not np.unique, whose first call imports numpy.ma
    keep = np.zeros((count - 1) * factor + 1, dtype=bool)
    keep[base[:, None] + np.arange(-reach, reach + 1)] = True
    return np.flatnonzero(keep)


def _on_axes(field_out, xs, ts, rows, cols):
    """field_out, solved at ts[rows] x xs[cols], as a field on (xs, ts)
    whose other samples hold NaN."""
    def spread(F):
        if F is None:
            return None
        out = np.full((ts.size, xs.size) + F.shape[2:], np.nan, dtype=F.dtype)
        out[np.ix_(rows, cols)] = F
        return out

    return replace(field_out, xs=xs, ts=ts, center=spread(field_out.center),
                   center_tilde=spread(field_out.center_tilde),
                   copies={rows[i]: rows[j] for i, j in field_out.copies.items()})


def convergence_study(scenario, levels=3, threads=1):
    """Re-run the scenario at doubled resolution per level.

    Sample spans stay fixed while the quadrature step, x step, and t
    step halve together.  The per-level error is the distance to the
    rank-one closed form over the whole refined grid when the data is
    scalar exponential with a separable companion; otherwise it is the
    PDE residual at the base level's interior samples, which every level
    shares.  Each level (f = 2^level) solves, on its refined axes, the
    samples its error reads and no others: the closed form reads every
    sample; the residual reads the base interior samples (base sample j
    is refined sample j f) and, per axis, the samples within the
    stencils' reach of them (equations.stencil_reach).  The rest of the
    refined grid holds NaN, which no residual at a base interior sample
    reads.  Returns a StudyReport with per-level errors, ratios, and the
    fitted order.  Each level counts the samples patch monitoring
    skipped among those it solved; its error covers the rest.  Every
    level, its rules and its solved axes are built and checked before
    the first solve.
    """
    if levels < 3:
        raise ValueError("convergence study needs levels >= 3, got %r" % (levels,))
    p0 = scenario.p0
    finest_N = scenario.quad.intervals * 2 ** (levels - 1)
    size = finest_N * max(p0.rows, p0.cols) * (2 if scenario.richardson else 1)
    if size > STUDY_GUARD:
        raise ValueError("finest level needs N*m = %d > %d; shrink N or levels"
                         % (size, STUDY_GUARD))

    reference = _rank_one_reference(scenario)
    base_xs, base_ts = scenario.xs, scenario.ts
    for vals, label in ((base_xs, "x"), (base_ts, "t")):
        if not is_uniform(np.diff(vals)):
            raise ValueError("a study halves the steps of samples.%s, which "
                             "must be uniformly spaced" % label)
    if reference is None:
        sample_steps(scenario.kind, base_xs, base_ts)
        reach_t, reach_x = stencil_reach(scenario.kind)

    plan = []
    for lev in range(levels):
        factor = 2 ** lev
        quad = make_quadrature(scenario.quad.truncation,
                               scenario.quad.intervals * factor,
                               p0.grid.spacing)
        quadrature_rules(quad, scenario.richardson)
        xs, ts = _refine_axis(base_xs, factor), _refine_axis(base_ts, factor)
        if reference is None:
            rows = _footprint(base_ts.size, factor, reach_t)
            cols = _footprint(base_xs.size, factor, reach_x)
        else:
            rows, cols = np.arange(ts.size), np.arange(xs.size)
        # only the centre values are read, so no level keeps its slices
        sc = replace(scenario, quad=quad, xs=xs[cols], ts=ts[rows], outputs=("center",))
        _check_on_grid(p0.grid, quad, sc.xs)
        plan.append((factor, xs, ts, rows, cols, sc))

    out_levels = []
    for factor, xs, ts, rows, cols, sc in plan:
        field_out, patch = evaluate_solution(sc, threads=threads)
        field_out = _on_axes(field_out, xs, ts, rows, cols)
        if reference is not None:
            err = _nanmax_abs(field_out.center[:, :, 0, 0] - reference(xs, ts))
        else:
            R = np.max([np.abs(F).max(axis=(-1, -2)) for _, fields
                        in residuals(scenario.kind, field_out) for F in fields], axis=0)
            # residuals trim two samples per end, so base interior
            # sample j sits at R[j factor - 2]
            at = [factor * np.arange(2, v.size - 2) - 2 for v in (base_ts, base_xs)]
            err = _nanmax_abs(R[np.ix_(*at)])
        dx = xs[1] - xs[0] if xs.size > 1 else 0.0
        dt = ts[1] - ts[0] if ts.size > 1 else 0.0
        out_levels.append(StudyLevel(N=sc.quad.intervals, dx=float(dx), dt=float(dt),
                                     error=err, skipped=len(patch.skipped)))

    errs = np.array([lv.error for lv in out_levels])
    # a zero or NaN error makes its ratios and the order nan, without a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = [float(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        slope = np.polyfit(np.arange(levels), np.log2(errs), 1)[0]
    name = "closed-form" if reference is not None else "residual"
    return StudyReport(reference=name, levels=out_levels, ratios=ratios,
                       fitted_order=float(-slope))


def _verify_checks(scenario):
    """Identity and residual checks on the scenario's own data."""
    checks = []
    quad, kind = scenario.quad, scenario.kind
    (p0, ptil), = pairings(scenario.p0, kind.params, kind.companion, [0.0])
    x0 = float(scenario.xs[len(scenario.xs) // 2])
    dxq = quad.spacing

    kernels = [paired_Q(p0, ptil, x0 + k * dxq, quad) for k in (-2, -1, 0, 1, 2)]
    rep_fine = u_identity_check(kernels[1:4], dx=dxq)
    rep_coarse = u_identity_check(kernels[::2], dx=2 * dxq)
    checks.append(("u_identity_ii", rep_fine.identity_ii_error, 1e-10))
    ratio = rep_coarse.identity_i_error / max(rep_fine.identity_i_error, 1e-300)
    checks.append(("u_identity_i_ratio", ratio, (2.5, 6.0)))

    if ptil is not None:
        coarse = make_quadrature(quad.truncation, max(quad.intervals // 2, 4),
                                 p0.grid.spacing)
        env = lambda y, z: np.exp(-(y - z) ** 2) * np.eye(p0.rows)
        _, _, err_f = product_rule_check(env, p0, ptil, env, x0, quad)
        _, _, err_c = product_rule_check(env, p0, ptil, env, x0, coarse)
        checks.append(("product_rule_ratio", err_c / max(err_f, 1e-300),
                       (2.5, 6.0)))

    preserving = (abs(kind.params.mu1.real) < 1e-14
                  and abs(kind.params.mu2.imag) < 1e-14)
    if preserving and p0.exp_tag is None:
        M = p0.grid.node_count
        moved = evolve(p0, kind.params, 0.37)
        drift = np.abs(np.abs(np.fft.fft(moved.samples, axis=0) / M)
                       - np.abs(np.fft.fft(p0.samples, axis=0) / M)).max()
        checks.append(("spectral_magnitude_drift", drift, 1e-12))

    tols = scenario.tolerances
    # the solve that solve runs at x0 on this rule
    edges, = Run(p0, ptil, x0, quad).solve([0], tols["patch_threshold"], tols["solver_tol"])
    if edges.row is None:
        raise PatchError(edges.det2, x0)
    checks.append(("nystrom_backward_error", edges.berr, tols["solver_tol"]))
    return checks


def verify(scenario):
    """Print PASS/FAIL lines for the identity suite; return exit code."""
    failures = 0
    # at one OpenBLAS thread, as solve runs, so every host prints the same
    with one_blas_thread():
        checks = _verify_checks(scenario)
    for name, value, bound in checks:
        if isinstance(bound, tuple):
            ok = bound[0] < value < bound[1]
            text = "in (%g, %g)" % bound
        else:
            ok = value <= bound
            text = "<= %g" % bound
        print("%s  %-26s %.3e  (expected %s)" % ("PASS" if ok else "FAIL",
                                                 name, value, text))
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, which main
    reports as one error: line with exit code 1 (argparse would print
    the usage and exit 2, the code of a run that skipped samples)."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None):
    parser = _Parser(prog="hankelpde",
                     description="Solve matrix-valued integrable PDEs by "
                     "Fredholm linearisation.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run a scenario and write tables")
    p_solve.add_argument("scenario")
    p_solve.add_argument("--out", default=".")
    p_solve.add_argument("--threads", type=int, default=1)
    p_study = sub.add_parser("study", help="convergence study")
    p_study.add_argument("scenario")
    p_study.add_argument("--levels", type=int, default=3)
    p_study.add_argument("--threads", type=int, default=1)
    p_verify = sub.add_parser("verify", help="identity/residual suite only")
    p_verify.add_argument("scenario")

    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1, got %d" % args.threads)
        scenario = parse_scenario(args.scenario)
        if args.command == "solve":
            code = run(scenario, out_dir=args.out, threads=args.threads)
            if code == 2:
                print("completed with patch-skipped samples (see manifest)")
            return code
        if args.command == "study":
            report = convergence_study(scenario, levels=args.levels,
                                       threads=args.threads)
            print("reference: %s" % report.reference)
            print("level\tN\tdx\tdt\terror")
            for i, lv in enumerate(report.levels):
                print("%d\t%d\t%.6g\t%.6g\t%.6e"
                      % (i, lv.N, lv.dx, lv.dt, lv.error))
            print("ratios: %s" % ", ".join("%.2f" % r for r in report.ratios))
            print("fitted order: %.3f" % report.fitted_order)
            skips = ["%d at level %d" % (lv.skipped, i)
                     for i, lv in enumerate(report.levels) if lv.skipped]
            if skips:
                print("completed with patch-skipped samples: %s" % ", ".join(skips))
            return 2 if skips else 0
        return verify(scenario)
    except (ValueError, OSError, GrowthError, PatchError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
