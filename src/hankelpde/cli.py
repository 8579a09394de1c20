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

Tolerances resolve as defaults < scenario file < environment
(HANKELPDE_DECAY_TOL, HANKELPDE_PATCH_THRESHOLD, HANKELPDE_SOLVER_TOL).
Output tables are tab-separated with %.17g floats, so identical
scenarios produce bitwise-identical tables regardless of --threads.
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
from .companion import companion_at, companion_profile, space_reversed
from .dispersion import GrowthError, evolve
from .equations import (
    _nanmax_abs,
    _require_symmetric,
    product_rule_check,
    residual_coupled,
    residual_kernel,
    residual_local,
    u_identity_check,
)
from .fredholm import (
    PATCH_THRESHOLD,
    assemble_Q,
    evaluate_solution,
    kdv_Q,
    make_quadrature,
    nystrom_residual,
    solve_G,
)
from .gridkernel import (
    DECAY_TOL,
    InitialDataSpec,
    make_uniform_grid,
    sample_profile,
)
from .kinds import resolve_kind

SOLVER_TOL = 1e-10
ENV_PREFIX = "HANKELPDE_"
_ENV_KEYS = {"decay_tol": "DECAY_TOL", "patch_threshold": "PATCH_THRESHOLD",
             "solver_tol": "SOLVER_TOL"}
_OUTPUT_KINDS = ("center", "slices", "det2", "residuals")
_DATA_KINDS = ("gaussian", "exponential_step", "exponential", "tabulated")


@dataclass
class Scenario:
    """Validated run description; evaluate_solution consumes it directly."""

    name: str
    kind: object
    n: int
    m: int
    params: object
    companion: str
    coupled: bool
    initial: InitialDataSpec
    grid: object
    quad: object
    xs: np.ndarray
    ts: np.ndarray
    outputs: tuple
    tolerances: dict
    richardson: bool = False
    raw: dict = field(default=None, repr=False)


def _parse_complex(value, label):
    if isinstance(value, str):
        text = value.replace("i", "j").replace(" ", "")
        try:
            return complex(text)
        except ValueError:
            raise ValueError("cannot parse %s value %r" % (label, value))
    if isinstance(value, (int, float, complex)):
        return complex(value)
    raise ValueError("cannot parse %s value %r" % (label, value))


def _number(value, label, kind=float):
    """value converted by kind (float or int); anything that does not
    convert, None and lists included, is a one-line ValueError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s must be a number, got %r" % (label, value))


def _sample_axis(section, label):
    if isinstance(section, (list, tuple)):
        try:
            vals = np.asarray(section, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("samples.%s must be a list of numbers, got %r"
                             % (label, section))
    elif isinstance(section, dict):
        missing = {"start", "stop", "count"} - set(section)
        if missing:
            raise ValueError("samples.%s needs start/stop/count, missing %s"
                             % (label, sorted(missing)))
        count = _number(section["count"], "samples.%s.count" % label, int)
        if count < 1:
            raise ValueError("samples.%s count must be >= 1" % label)
        vals = np.linspace(_number(section["start"], "samples.%s.start" % label),
                           _number(section["stop"], "samples.%s.stop" % label),
                           count)
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
    for key, suffix in _ENV_KEYS.items():
        env = os.environ.get(ENV_PREFIX + suffix)
        if env is not None:
            tols[key] = _number(env, ENV_PREFIX + suffix)
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
            or not all(isinstance(d, int) and d >= 1 for d in dims)):
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
    if initial.kind in ("exponential_step", "exponential") \
            and space_reversed(kind.companion):
        raise ValueError("space-reversed pairings reflect the profile, and a "
                         "reflected exponential grows on the quadrature "
                         "window; use localized data for kind %r" % kind.name)

    for x in xs:
        grid.node_index(x)
        grid.node_index(x - 2.0 * quad.truncation)

    outputs = raw.get("outputs", ["center", "det2", "residuals"])
    if not isinstance(outputs, list):
        raise ValueError("outputs must be a list, got %r" % (outputs,))
    outputs = tuple(outputs)
    for out in outputs:
        if out not in _OUTPUT_KINDS:
            raise ValueError("unknown output request %r (expected one of %s)"
                             % (out, list(_OUTPUT_KINDS)))

    if "residuals" in outputs:
        if xs.size < 5 or ts.size < 5:
            raise ValueError("residual output needs at least 5 samples per "
                             "axis, got %d x and %d t" % (xs.size, ts.size))
        if kind.reflect_x:
            _require_symmetric(xs, "x")
        if kind.reflect_t:
            _require_symmetric(ts, "t")

    tols = _resolve_tolerances(raw.get("tolerances"))
    richardson = raw.get("richardson", False)
    if not isinstance(richardson, bool):
        raise ValueError("richardson must be true or false, got %r" % (richardson,))

    sc = Scenario(name=str(raw.get("name", "scenario")), kind=kind, n=n, m=m,
                  params=kind.params, companion=kind.companion,
                  coupled=kind.coupled, initial=initial, grid=grid, quad=quad,
                  xs=xs, ts=ts, outputs=outputs, tolerances=tols,
                  richardson=richardson, raw=raw)

    p0 = sample_profile(initial, grid, n, m)
    if p0.exp_tag is None and not p0.decay_ok(tols["decay_tol"]):
        warnings.warn("initial data boundary decay ratio %.3e exceeds %.3e; "
                      "spectral evolution may wrap around the domain"
                      % (p0.boundary_decay_ratio(), tols["decay_tol"]))
    return sc


def _fmt_row(values):
    return "\t".join("%.17g" % v for v in values)


def _entry_headers(prefix, n, m):
    cols = []
    for i in range(n):
        for j in range(m):
            cols.append("re_%s%d%d" % (prefix, i, j))
            cols.append("im_%s%d%d" % (prefix, i, j))
    return cols


def _write_table(path, header, keys, values, tail=()):
    """Write one row per row of keys: the key columns, each complex entry
    of that row of values as re, im in ravel order, then the tail
    columns; every number as %.17g."""
    values = values.reshape(len(keys), -1)
    re_im = np.stack([values.real, values.imag], axis=-1).reshape(len(keys), -1)
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in np.column_stack([keys, re_im, *tail]):
            fh.write(_fmt_row(row) + "\n")


def _sample_keys(field_out, *inner):
    """Key columns (x, t, *inner) over the samples in t-major order."""
    grids = [g.ravel() for g in np.meshgrid(field_out.ts, field_out.xs, *inner,
                                            indexing="ij")]
    return np.column_stack([grids[1], grids[0]] + grids[2:])


def _l2_norm(R, dx, dt):
    vals = np.abs(R) ** 2
    total = np.nansum(vals.reshape(vals.shape[0], vals.shape[1], -1).max(axis=2))
    return float(np.sqrt(total * dx * dt))


def _residual_rows(scenario, field_out):
    dx = float(scenario.xs[1] - scenario.xs[0])
    dt = float(scenario.ts[1] - scenario.ts[0])
    rows = []
    if scenario.coupled:
        worst, (R1, R2) = residual_coupled(field_out, return_fields=True)
        rows.append(("coupled_g", _nanmax_abs(R1), _l2_norm(R1, dx, dt)))
        rows.append(("coupled_g_tilde", _nanmax_abs(R2), _l2_norm(R2, dx, dt)))
        return rows
    res, worst = residual_local(scenario.kind, field_out)
    inner = res[2:-2, 2:-2]
    rows.append((scenario.kind.name, worst, _l2_norm(inner, dx, dt)))
    if scenario.kind.has_kernel_form:
        worst_k, (R1, R2) = residual_kernel(scenario.kind, field_out,
                                            return_fields=True)
        rows.append((scenario.kind.name + "_slices", worst_k,
                     max(_l2_norm(R1, dx, dt), _l2_norm(R2, dx, dt))))
    return rows


def run(scenario, out_dir=".", threads=1):
    """Solve the scenario and write its output files.

    Returns the exit code: 0 clean, 2 when patch monitoring skipped
    samples.  Failures raise; the command-line wrapper maps them to 1.
    """
    os.makedirs(out_dir, exist_ok=True)
    timings = {}
    t0 = time.perf_counter()
    field_out, report = evaluate_solution(scenario, threads=threads)
    timings["solve_s"] = time.perf_counter() - t0

    written = []
    keys = _sample_keys(field_out)
    if "center" in scenario.outputs:
        path = os.path.join(out_dir, "center.tsv")
        header = ["x", "t"] + _entry_headers("g", scenario.n, scenario.m)
        values = field_out.center.reshape(len(keys), -1)
        if scenario.coupled:
            header += _entry_headers("gt", scenario.m, scenario.n)
            values = np.column_stack(
                [values, field_out.center_tilde.reshape(len(keys), -1)])
        _write_table(path, header, keys, values)
        written.append(path)
    if "slices" in scenario.outputs:
        slice_keys = _sample_keys(field_out, field_out.quad.nodes)
        for which, data in (("y", field_out.slice_y), ("z", field_out.slice_z)):
            path = os.path.join(out_dir, "slice_%s.tsv" % which)
            header = ["x", "t", "xi"] + _entry_headers("g", *data.shape[-2:])
            _write_table(path, header, slice_keys, data)
            written.append(path)
    if "det2" in scenario.outputs:
        path = os.path.join(out_dir, "det2.tsv")
        _write_table(path, ["x", "t", "re_det2", "im_det2", "abs_det2"], keys,
                     report.det2, tail=([abs(d) for d in report.det2.ravel()],))
        written.append(path)

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
        "timings": timings,
        "outputs": [os.path.basename(p) for p in written],
        "min_det2_modulus": report.min_modulus,
        "max_backward_error": report.max_backward_error,
        "skipped": [[it, ix, t, x, d.real, d.imag]
                    for (it, ix, t, x, d) in report.skipped],
        "residuals": [[name, worst, l2] for name, worst, l2 in residual_rows],
        "exit_code": code,
    }
    mpath = os.path.join(out_dir, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return code


def _rank_one_reference(scenario):
    """Continuum centre values for scalar exponential data, or None.

    theta(x, t) is the evolved data and theta~ its partner from
    companion_at.  Without space reversal the partner keeps the rate a,
    so the rank-one composition is separable, with S = 1/(2a):
    theta / (1 + theta theta~ S^2), or theta / (1 - theta S) for
    neg_identity, whose composed kernel is -P.  The returned
    reference(xs, ts) gives the values on the (t, x) sample grid.
    """
    init = scenario.initial
    if (init.kind != "exponential" or scenario.n != 1 or scenario.m != 1
            or space_reversed(scenario.companion)):
        return None
    p0 = sample_profile(init, scenario.grid, 1, 1)
    S = 1.0 / (2.0 * p0.exp_tag[0])

    def at(p, xs):
        rate, amp = p.exp_tag
        return amp[0, 0] * np.exp(rate * xs)

    def reference(xs, ts):
        rows = []
        for t in ts:
            th = at(evolve(p0, scenario.params, t), xs)
            if scenario.companion == "neg_identity":
                rows.append(th / (1.0 - th * S))
            else:
                tl = at(companion_at(p0, scenario.companion, scenario.params, t), xs)
                rows.append(th / (1.0 + th * tl * S * S))
        return np.array(rows)

    return reference


@dataclass
class StudyLevel:
    N: int
    dx: float
    dt: float
    error: float


@dataclass
class StudyReport:
    reference: str
    levels: list
    ratios: list
    fitted_order: float


def _refine_axis(vals, factor):
    count = (vals.size - 1) * factor + 1
    return np.linspace(vals[0], vals[-1], count)


def convergence_study(scenario, levels=3, guard=4096, threads=1):
    """Re-run the scenario at doubled resolution per level.

    Sample spans stay fixed while the quadrature step, x step, and t
    step halve together.  The per-level error is the distance to the
    rank-one closed form when the data is scalar exponential with a
    separable companion; otherwise it is the PDE residual measured at
    the base level's interior sample points, which every finer level
    shares (refinement inserts midpoints and keeps the old samples).
    Returns a StudyReport with per-level errors, ratios, and the
    least-squares fitted order.
    """
    if levels < 3:
        raise ValueError("convergence study needs levels >= 3, got %r" % (levels,))
    finest_N = scenario.quad.intervals * 2 ** (levels - 1)
    size = finest_N * max(scenario.n, scenario.m) * (2 if scenario.richardson else 1)
    if size > guard:
        raise ValueError("finest level needs N*m = %d > %d; shrink N or levels "
                         "or raise the guard" % (size, guard))

    reference = _rank_one_reference(scenario)
    base_xs, base_ts = scenario.xs, scenario.ts
    if reference is None:
        if base_xs.size < 5 or base_ts.size < 5:
            raise ValueError("residual-based study needs at least 5 samples "
                             "per axis at the base level")

    out_levels = []
    for lev in range(levels):
        factor = 2 ** lev
        quad = make_quadrature(scenario.quad.truncation,
                               scenario.quad.intervals * factor,
                               scenario.grid.spacing)
        xs = _refine_axis(base_xs, factor)
        ts = _refine_axis(base_ts, factor)
        sc = replace(scenario, quad=quad, xs=xs, ts=ts)
        field_out, _ = evaluate_solution(sc, threads=threads)
        if reference is not None:
            err = _nanmax_abs(field_out.center[:, :, 0, 0] - reference(xs, ts))
        else:
            if scenario.coupled:
                _, (R1, R2) = residual_coupled(field_out, return_fields=True)
                R = np.maximum(np.abs(R1).max(axis=(-1, -2)),
                               np.abs(R2).max(axis=(-1, -2)))
            else:
                res, _ = residual_local(scenario.kind, field_out)
                R = np.abs(res[2:-2, 2:-2]).max(axis=(-1, -2))
            # base-level interior sample j sits at refined index
            # j*factor; subtract the two-layer stencil trim
            it_in = factor * np.arange(2, base_ts.size - 2) - 2
            ix_in = factor * np.arange(2, base_xs.size - 2) - 2
            err = float(np.nanmax(R[np.ix_(it_in, ix_in)]))
        dx = xs[1] - xs[0] if xs.size > 1 else 0.0
        dt = ts[1] - ts[0] if ts.size > 1 else 0.0
        out_levels.append(StudyLevel(N=quad.intervals, dx=float(dx),
                                     dt=float(dt), error=err))

    errs = np.array([lv.error for lv in out_levels])
    ratios = [float(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    slope = np.polyfit(np.arange(levels), np.log2(errs), 1)[0]
    name = "closed-form" if reference is not None else "residual"
    return StudyReport(reference=name, levels=out_levels, ratios=ratios,
                       fitted_order=float(-slope))


def _verify_checks(scenario):
    """Identity and residual checks on the scenario's own data."""
    checks = []
    p0 = sample_profile(scenario.initial, scenario.grid, scenario.n, scenario.m)
    quad = scenario.quad
    x0 = float(scenario.xs[len(scenario.xs) // 2])
    dxq = quad.spacing

    ptil = None
    if scenario.companion != "neg_identity":
        ptil = companion_profile(p0, scenario.companion)

    def q_at(x):
        return kdv_Q(p0, x, quad) if ptil is None else assemble_Q(p0, ptil, x, quad)

    kernels = [q_at(x0 + k * dxq) for k in (-2, -1, 0, 1, 2)]
    rep_fine = u_identity_check(kernels[1:4], dx=dxq)
    rep_coarse = u_identity_check(kernels[::2], dx=2 * dxq)
    checks.append(("u_identity_ii", rep_fine.identity_ii_error, 1e-10))
    ratio = rep_coarse.identity_i_error / max(rep_fine.identity_i_error, 1e-300)
    checks.append(("u_identity_i_ratio", ratio, (2.5, 6.0)))

    if ptil is not None:
        coarse = make_quadrature(quad.truncation, max(quad.intervals // 2, 4),
                                 scenario.grid.spacing)
        env = lambda y, z: np.exp(-(y - z) ** 2) * np.eye(scenario.n)
        _, _, err_f = product_rule_check(env, p0, ptil, env, x0, quad)
        _, _, err_c = product_rule_check(env, p0, ptil, env, x0, coarse)
        checks.append(("product_rule_ratio", err_c / max(err_f, 1e-300),
                       (2.5, 6.0)))

    preserving = (abs(scenario.params.mu1.real) < 1e-14
                  and abs(scenario.params.mu2.imag) < 1e-14)
    if preserving and p0.exp_tag is None:
        M = p0.grid.node_count
        moved = evolve(p0, scenario.params, 0.37)
        drift = np.abs(np.abs(np.fft.fft(moved.samples, axis=0) / M)
                       - np.abs(np.fft.fft(p0.samples, axis=0) / M)).max()
        checks.append(("spectral_magnitude_drift", drift, 1e-12))

    Q0 = kernels[2]
    G = solve_G(Q0, p0, x0, quad)
    checks.append(("nystrom_backward_error",
                   nystrom_residual(G, Q0, p0, x0, quad),
                   scenario.tolerances["solver_tol"]))
    return checks


def verify(scenario):
    """Print PASS/FAIL lines for the identity suite; return exit code."""
    failures = 0
    for name, value, bound in _verify_checks(scenario):
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


def main(argv=None):
    parser = argparse.ArgumentParser(prog="hankelpde",
                                     description="Solve matrix-valued "
                                     "integrable PDEs by Fredholm "
                                     "linearisation.")
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
    args = parser.parse_args(argv)

    try:
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
            return 0
        return verify(scenario)
    except (ValueError, OSError, GrowthError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
