"""Correctness gate: every benchmark process's outputs are checked.

A process passes when hankelpde exited 0, no sample was patch-skipped,
and the workload's accuracy check holds:

- kdv_soliton: the centre table matches the closed form 2 theta /
  (2 - theta), theta = A e^(x - t), to ERROR_BOUND["kdv_soliton"];
- nls2x2_wide: the PDE residual is finite and within the bound
  recorded when the benchmark was defined, every table is complete, and
  the centre at the first and last samples matches an independent dense
  Nystrom solve (nls_center_reference) to NLS_CENTER_TOL.  The residual
  alone is set by its stencil step at this sample spacing and would not
  notice a centre off by 2%;
- nls2x2_study: the fitted order lies in STUDY_ORDER and the finest
  level's error is finite.
"""

import math
import os

import numpy as np

# kdv_soliton: closed-form centre error (about 5.6e-8 over the seeds).
# nls2x2_wide: max PDE residual of the 5 x 6 sample grid, set by the
# stencil step; at the corners of the seed range (amplitude scale 0.97
# and 1.03, offset -3 and +3 spacings) it was 0.046-0.050 when the
# benchmark was defined.
ERROR_BOUND = {"kdv_soliton": 1e-6, "nls2x2_wide": 0.08}
STUDY_ORDER = (1.6, 2.4)
# far above the roundoff of the reference (about 1e-13 at this commit)
# and far below any error that changes the solution's value
NLS_CENTER_TOL = 1e-6


class GateResult:
    def __init__(self, error_max, problems):
        self.error_max = error_max
        self.problems = problems

    @property
    def ok(self):
        return not self.problems


def _read_table(path, first_is_name=False):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = []
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if first_is_name:
                rows.append((cells[0], [float(v) for v in cells[1:]]))
            else:
                rows.append([float(v) for v in cells])
    return header, rows


def _count_rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def kdv_center_error(path, amplitude):
    """Max |centre - 2 theta / (2 - theta)| over the centre table."""
    header, rows = _read_table(path)
    if header[:4] != ["x", "t", "re_g00", "im_g00"]:
        raise ValueError("unexpected centre table header %r" % header)
    worst = 0.0
    for x, t, re, im in (r[:4] for r in rows):
        theta = amplitude * math.exp(x - t)
        err = abs(complex(re, im) - 2.0 * theta / (2.0 - theta))
        if not math.isfinite(err):
            return math.inf
        worst = max(worst, err)
    return worst


def _samples(scenario):
    return scenario["samples"]["x"]["count"] * scenario["samples"]["t"]["count"]


def check_solve(workload, scenario, out_dir):
    """Gate for a `hankelpde solve` process that exited 0."""
    try:
        return _check_solve(workload, scenario, out_dir)
    except (OSError, ValueError, IndexError) as err:
        return GateResult(math.inf, ["unreadable output: %s" % err])


def _check_solve(workload, scenario, out_dir):
    problems = []
    n = _samples(scenario)
    center = os.path.join(out_dir, "center.tsv")
    if _count_rows(center) != n:
        problems.append("center.tsv does not hold %d samples" % n)
    if workload == "kdv_soliton":
        error = kdv_center_error(center, float(scenario["initial"]["amplitude"]))
    else:
        _, center_rows = _read_table(center)
        if not all(math.isfinite(v) for row in center_rows for v in row):
            problems.append("center.tsv holds non-finite values")
        K = scenario["quadrature"]["N"] + 1
        for which in ("y", "z"):
            if _count_rows(os.path.join(out_dir, "slice_%s.tsv" % which)) != n * K:
                problems.append("slice_%s.tsv does not hold %d rows" % (which, n * K))
        problems += _nls_center_problems(scenario, center_rows)
        residuals = _residual_maxima(os.path.join(out_dir, "residuals.tsv"))
        error = residuals.get(scenario["kind"], math.inf)
    if not error <= ERROR_BOUND[workload]:
        problems.append("error %.3e exceeds %.1e" % (error, ERROR_BOUND[workload]))
    return GateResult(error, problems)


def _nls_center_problems(scenario, center_rows):
    # the first and last samples lie in different t rows, so in rows
    # solved by different threads
    problems = []
    for row in (center_rows[0], center_rows[-1]):
        x, t = row[:2]
        got = np.array(row[2::2]) + 1j * np.array(row[3::2])
        err = np.abs(got - nls_center_reference(scenario, x, t).ravel()).max()
        if not err <= NLS_CENTER_TOL:
            problems.append("centre at x=%g t=%g is %.2e from the reference"
                            % (x, t, err))
    return problems


def _residual_maxima(path):
    """equation name -> max residual, from residuals.tsv."""
    _, rows = _read_table(path, first_is_name=True)
    return {name: values[0] for name, values in rows}


def check_study(stdout_text):
    """Gate for a `hankelpde study` process that exited 0."""
    problems = []
    errors, order = [], None
    for line in stdout_text.splitlines():
        parts = line.split("\t")
        if len(parts) == 5 and parts[0].isdigit():
            errors.append(float(parts[4]))
        elif line.startswith("fitted order:"):
            order = float(line.split(":", 1)[1])
    if len(errors) < 3:
        problems.append("study printed %d levels" % len(errors))
    error = errors[-1] if errors else math.inf
    if not math.isfinite(error):
        problems.append("finest-level error is not finite")
    if order is None or not STUDY_ORDER[0] <= order <= STUDY_ORDER[1]:
        problems.append("fitted order %r outside %r" % (order, STUDY_ORDER))
    return GateResult(error, problems)


def nls_center_reference(scenario, x, t):
    """g(0, 0; x, t) for local NLS with Gaussian data, written from the
    method's definition without hankelpde: evolve p0 exactly in Fourier
    space under p_t = -i p_ss, take the adjoint companion, and solve the
    trapezoid Nystrom system G (I + W Q) = P on [-L, 0]."""
    init = scenario["initial"]
    X, M = scenario["grid"]["X"], scenario["grid"]["M"]
    L, N = scenario["quadrature"]["L"], scenario["quadrature"]["N"]
    h = 2.0 * X / M
    s = -X + h * np.arange(M)
    amp = np.array(init["amplitude"], dtype=complex)
    n, m = amp.shape
    p0 = np.exp(-s ** 2 / (2.0 * init["width"] ** 2))[:, None, None] * amp
    k = np.fft.fftfreq(M, d=h)
    mult = np.exp(-1j * t * (2j * np.pi * k) ** 2)
    p = np.fft.ifft(mult[:, None, None] * np.fft.fft(p0, axis=0), axis=0)

    hq = L / N
    stride = int(round(hq / h))
    base = int(round((x - 2.0 * L + X) / h))
    vals = p[base: base + 2 * N * stride + 1: stride]
    idx = np.arange(N + 1)[:, None] + np.arange(N + 1)[None, :]
    P = vals[idx].transpose(0, 2, 1, 3).reshape((N + 1) * n, (N + 1) * m)
    Pt = np.conj(vals[idx].transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3).reshape(
        (N + 1) * m, (N + 1) * n)
    w = np.full(N + 1, hq)
    w[0] = w[-1] = hq / 2.0
    WQ = np.repeat(w, m)[:, None] * (Pt @ (np.repeat(w, n)[:, None] * P))
    A = np.eye(WQ.shape[0]) + WQ
    G = np.linalg.solve(A.T, P.T).T
    return G[-n:, -m:]
