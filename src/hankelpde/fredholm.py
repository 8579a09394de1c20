"""Dense Nystrom layer: Q assembly, Fredholm solve, det2 patch monitor.

The linearising identity is P = G(id + Q) on the half line (-inf, 0],
truncated to [-L, 0] with composite trapezoid quadrature.  All kernels
carry matrix blocks per node pair; the dense solve works on the block
matrix with the quadrature weights folded in on the left of Q.  The
unknown G multiplies (id + Q) from the left, so the linear system is
solved in transposed orientation (unknown rows, matrix acting from the
right); plain transposes, never conjugate ones.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .companion import companion_profile, time_reversed
from .dispersion import evolve
from .gridkernel import sample_profile

PATCH_THRESHOLD = 1e-8


class PatchError(Exception):
    """Poor representative coordinate patch: |det2| fell below threshold
    at some (x,t), so the dense solve cannot be certified there."""

    def __init__(self, det2_value, x=None, t=None):
        self.det2_value = det2_value
        self.x = x
        self.t = t
        where = "" if t is None else " t=%g" % t
        super().__init__("det2 = %g below patch threshold at x=%s%s"
                         % (abs(det2_value), x, where))


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite trapezoid rule on [-L, 0] with N intervals.

    Nodes are xi_j = -L + j*h for j = 0..N, h = L/N; h must be an
    integer multiple of the master spacing h_x (stride) so kernel
    arguments land on master nodes exactly.
    """

    truncation: float
    intervals: int
    spacing: float
    stride: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def node_count(self):
        return self.intervals + 1


def make_quadrature(L, N, h_x):
    if not L > 0:
        raise ValueError("truncation L must be positive, got %g" % L)
    if N < 4:
        raise ValueError("quadrature needs at least 4 intervals, got %r" % (N,))
    h = L / N
    ratio = h / h_x
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > 1e-9:
        raise ValueError("quadrature spacing %g is not an integer multiple of "
                         "the master spacing %g" % (h, h_x))
    nodes = -L + h * np.arange(N + 1)
    weights = np.full(N + 1, h)
    weights[0] = weights[-1] = h / 2.0
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureGrid(truncation=float(L), intervals=int(N), spacing=h,
                          stride=stride, nodes=nodes, weights=weights)


@dataclass(frozen=True)
class DiscreteKernel:
    """Two-argument kernel sampled at quadrature node pairs.

    blocks has shape (K, K, a, b) with K = quad.node_count; blocks[i, j]
    is the a x b matrix value at (xi_i, xi_j).
    """

    quad: QuadratureGrid
    block_rows: int
    block_cols: int
    blocks: np.ndarray = field(repr=False)

    def big(self):
        """Flattened (K*a, K*b) matrix with blocks laid out in node order."""
        K = self.quad.node_count
        return self.blocks.transpose(0, 2, 1, 3).reshape(K * self.block_rows,
                                                         K * self.block_cols)

    @classmethod
    def from_big(cls, mat, quad, a, b):
        K = quad.node_count
        blocks = mat.reshape(K, a, K, b).transpose(0, 2, 1, 3)
        return cls(quad=quad, block_rows=a, block_cols=b, blocks=blocks)


def hankel_values(p, x, quad):
    """Profile samples at the 2N+1 distinct arguments xi_i + xi_j + x.

    The arguments are x - 2L + u*h for u = 0..2N; all must be master
    nodes inside the master domain, otherwise the configuration is
    rejected.  The result is a read-only view of p.samples: its real
    part when every imaginary part in the window is exactly zero (no
    tolerance), so the whole solve downstream runs in real arithmetic
    exactly when the data are real; complex otherwise.
    """
    grid = p.grid
    base = grid.node_index(x - 2.0 * quad.truncation)
    r = quad.stride
    N = quad.intervals
    top = base + 2 * N * r
    if top >= grid.node_count:
        raise ValueError("argument x=%g reaches past the master domain "
                         "(need node %d of %d); enlarge X" % (x, top, grid.node_count))
    if abs(quad.spacing - r * grid.spacing) > 1e-9 * grid.spacing:
        raise ValueError("quadrature spacing %g is not %d master spacings %g"
                         % (quad.spacing, r, grid.spacing))
    vals = p.samples[base: top + 1: r]
    return vals if vals.imag.any() else vals.real


def hankel_windows(vals, K):
    """The K x K block Hankel matrix H[i, j] = vals[i + j] as a read-only
    (K, K, a, b) strided view of vals; nothing is gathered."""
    return sliding_window_view(vals, K, axis=0).transpose(0, 3, 1, 2)


def hankel_rhs(p, x, quad):
    """Hankel block kernel p(xi_i + xi_j + x) as a DiscreteKernel whose
    blocks are a view of p's samples."""
    vals = hankel_values(p, x, quad)
    return DiscreteKernel(quad=quad, block_rows=p.rows, block_cols=p.cols,
                          blocks=hankel_windows(vals, quad.node_count))


def assemble_Q(p, p_tilde, x, quad):
    """Quadrature of q(y,z;x) = integral of ptilde(y+xi+x) p(xi+z+x) dxi.

    Only the inner dimensions must pair: p has n x m blocks and p_tilde
    a x n, and the result has a x m blocks with
    Q[i][j] = sum_k w_k ptilde(xi_i+xi_k+x) p(xi_k+xi_j+x).  A companion
    pairing (a = m) gives the square blocks the Nystrom solve needs.
    """
    if p_tilde.cols != p.rows:
        raise ValueError("companion dims %r do not pair with profile dims %r"
                         % ((p_tilde.rows, p_tilde.cols), (p.rows, p.cols)))
    P = hankel_rhs(p, x, quad)
    Pt = hankel_rhs(p_tilde, x, quad)
    w_rows = np.repeat(quad.weights, p.rows)
    Q_big = Pt.big() @ (w_rows[:, None] * P.big())
    return DiscreteKernel.from_big(Q_big, quad, p_tilde.rows, p.cols)


def kdv_Q(p, x, quad):
    """Q = -P for the primitive KdV pairing (no quadrature product).

    The companion here is -id, which is not Hankel; the discrete object
    is still perfectly well-defined as a sign-flipped Hankel block
    matrix, but note the continuum existence theory reads differently
    for it.
    """
    if p.rows != p.cols:
        raise ValueError("kdv_Q needs square matrix data, got %d x %d"
                         % (p.rows, p.cols))
    vals = -hankel_values(p, x, quad)
    return DiscreteKernel(quad=quad, block_rows=p.rows, block_cols=p.cols,
                          blocks=hankel_windows(vals, quad.node_count))


def nystrom_matrix(Q, quad):
    """The Nystrom system matrix I + WQ and the trace of WQ.

    W holds the quadrature weights of quad, one per block row of Q.  The
    weighted kernel is written straight into the result and the identity
    added on its diagonal in place, so no other k x k array is made.  A
    has the dtype of Q's blocks: real data give a real system.
    """
    K, a, b = quad.node_count, Q.block_rows, Q.block_cols
    if a != b:
        raise ValueError("the Nystrom system needs square blocks, got %d x %d" % (a, b))
    A = np.empty((K * a, K * b), dtype=Q.blocks.dtype)
    np.multiply(quad.weights[:, None, None, None], Q.blocks.transpose(0, 2, 1, 3),
                out=A.reshape(K, a, K, b))
    trace = np.trace(A)
    A.flat[::A.shape[1] + 1] += 1.0
    return A, trace


def _det2_of(A, trace):
    """det(A) e^{-trace} for A = I + WQ and trace = tr(WQ), in log space;
    factorization failure or an exactly singular A reports 0."""
    try:
        sign, logabs = np.linalg.slogdet(A)
    except np.linalg.LinAlgError:
        return 0.0 + 0.0j
    if sign == 0:
        return 0.0 + 0.0j
    return sign * np.exp(logabs - trace)


def det2(Q, quad=None):
    """Regularised determinant det((I + WQ) e^{-WQ}).

    Computed in log space as exp(logdet(I + WQ) - trace(WQ)) via a
    pivoted factorization; factorization failure or an exactly singular
    system reports det2 = 0.
    """
    quad = Q.quad if quad is None else quad
    return _det2_of(*nystrom_matrix(Q, quad))


def solve_G(Q, p, x, quad=None, patch_threshold=PATCH_THRESHOLD):
    """Solve G (id + WQ) = P for the block kernel G at parameter x.

    One dense solve of size K*m handles all row indices at once; the
    per-sample path solves only the edges of G (solve_origin), and this
    full solve is its reference.  The det2 monitor runs first; a modulus
    below patch_threshold raises PatchError instead of returning an
    uncertifiable solve.
    """
    quad = Q.quad if quad is None else quad
    A, trace = nystrom_matrix(Q, quad)
    det2_value = _det2_of(A, trace)
    if abs(det2_value) < patch_threshold:
        raise PatchError(det2_value, x=x)
    rhs = hankel_rhs(p, x, quad)
    G_big = np.linalg.solve(A.T, rhs.big().T).T
    return DiscreteKernel.from_big(G_big, quad, p.rows, p.cols)


def nystrom_residual(G, Q, p, x, quad=None):
    """Relative backward error of the solved system (certification aid)."""
    quad = Q.quad if quad is None else quad
    A = nystrom_matrix(Q, quad)[0]
    rhs = hankel_rhs(p, x, quad).big()
    num = np.abs(G.big() @ A - rhs).max()
    den = max(np.abs(rhs).max(), 1e-300)
    return float(num / den)


def quadrature_rules(quad, richardson, h_x):
    """The rules one sample is solved on: (quad,), or with Richardson
    extrapolation the pair (quad, its 2N refinement)."""
    if not richardson:
        return (quad,)
    return quad, make_quadrature(quad.truncation, 2 * quad.intervals, h_x)


def solve_origin(p, ptil, x, rules, threshold=PATCH_THRESHOLD):
    """det2, G at the origin and the backward error for one sample:
    (det2, G(0,0), G(xi_i,0), G(0,xi_j), backward error), the two slices
    over the nodes of rules[0].

    ptil=None is the neg_identity pairing (Q = -P); otherwise Q pairs p
    with the companion ptil.  Only the edges of G are solved for: per
    rule A = I + WQ is built once, slogdet(A) gives det2, the last block
    row solves row A = P_last with P_last[j] = p(xi_j + x), and the last
    block column is P Z with A Z = E_last, the last block column of I.
    G(0,0) is the row's last block, written into the column as well, so
    the centre and both slices hold one value.  The backward error is
    the larger of max|row A - P_last| / max|P_last| and max|A Z - E_last|,
    taken over the rules.  With two rules from quadrature_rules the
    values are Richardson-extrapolated, (4*fine - coarse)/3 with the
    fine rule read at every second node, and det2 is the fine rule's.
    A |det2| below threshold on either rule raises PatchError.
    """
    out = []
    n, m = p.rows, p.cols
    for quad in rules:
        A, trace = nystrom_matrix(kdv_Q(p, x, quad) if ptil is None
                                  else assemble_Q(p, ptil, x, quad), quad)
        d2 = _det2_of(A, trace)
        if abs(d2) < threshold:
            raise PatchError(d2, x=x)
        K = quad.node_count
        vals = hankel_values(p, x, quad)
        P_last = vals[quad.intervals:].transpose(1, 0, 2).reshape(n, K * m)
        row_big = np.linalg.solve(A.T, P_last.T).T
        E_last = np.zeros((K * m, m), dtype=A.dtype)
        E_last[-m:] = np.eye(m)
        Z = np.linalg.solve(A, E_last)
        col = np.einsum("ijab,jbc->iac", hankel_windows(vals, K),
                        Z.reshape(K, m, m), optimize=True)
        row = row_big.reshape(n, K, m).transpose(1, 0, 2)
        col[-1] = row[-1]
        berr = max(np.abs(row_big @ A - P_last).max() / max(np.abs(P_last).max(), 1e-300),
                   np.abs(A @ Z - E_last).max())
        out.append((d2, row[-1], col, row, float(berr)))
    if len(out) == 1:
        return out[0]
    (_, *coarse, berr_c), (d2, centre, col, row, berr_f) = out
    # combined in complex arithmetic whatever the rules' dtypes, so the
    # values equal the combination of two plain runs' complex tables
    fine = (centre, col[::2], row[::2])
    return ((d2,) + tuple((4.0 * f.astype(complex) - c) / 3.0
                          for f, c in zip(fine, coarse))
            + (max(berr_c, berr_f),))


@dataclass
class SolutionField:
    """Solution samples on the (x,t) grid.

    center[it, ix] is g(0,0;x,t); slice_y[it, ix, i] is g(xi_i, 0; x,t)
    and slice_z[it, ix, j] is g(0, xi_j; x,t).  Skipped samples hold
    NaN.  center_tilde is filled only for the coupled system.
    """

    xs: np.ndarray
    ts: np.ndarray
    quad: QuadratureGrid
    center: np.ndarray
    slice_y: np.ndarray
    slice_z: np.ndarray
    center_tilde: np.ndarray = None


@dataclass
class PatchReport:
    """det2 and backward-error bookkeeping over the sample grid."""

    det2: np.ndarray
    threshold: float
    skipped: list
    backward_error: np.ndarray

    @property
    def min_modulus(self):
        vals = np.abs(self.det2)
        vals = vals[np.isfinite(vals)]
        return float(vals.min()) if vals.size else float("nan")

    @property
    def max_backward_error(self):
        vals = self.backward_error[np.isfinite(self.backward_error)]
        return float(vals.max()) if vals.size else float("nan")

    @property
    def any_below(self):
        return len(self.skipped) > 0


def evaluate_solution(scenario, skip_on_patch_error=True, threads=1):
    """Run the full pipeline over the scenario's (x,t) sample grid.

    Per sample: evolve the data profile (and its reversed-time copy when
    the companion needs one), build the companion, assemble Q, check
    det2, solve, and record the centre value, the two slices through the
    origin, and det2.  Samples are independent; rows of constant t are
    distributed over threads and written into index-addressed arrays, so
    the output is deterministic regardless of scheduling.

    When |det2| falls below the patch threshold the sample is recorded
    as skipped (NaN field values) and the run continues, unless
    skip_on_patch_error=False, in which case the PatchError propagates
    with its (x,t) location.
    """
    xs = np.asarray(scenario.xs, dtype=float)
    ts = np.asarray(scenario.ts, dtype=float)
    n, m = scenario.n, scenario.m
    quad = scenario.quad
    K = quad.node_count
    nt, nx = ts.size, xs.size
    coupled = scenario.coupled
    threshold = scenario.tolerances.get("patch_threshold", PATCH_THRESHOLD)

    p0 = sample_profile(scenario.initial, scenario.grid, n, m)
    rules = quadrature_rules(quad, scenario.richardson, scenario.grid.spacing)

    center = np.full((nt, nx, n, m), np.nan, dtype=complex)
    slice_y = np.full((nt, nx, K, n, m), np.nan, dtype=complex)
    slice_z = np.full((nt, nx, K, n, m), np.nan, dtype=complex)
    center_tilde = np.full((nt, nx, m, n), np.nan, dtype=complex) if coupled else None
    det2_vals = np.full((nt, nx), np.nan, dtype=complex)
    berr = np.full((nt, nx), np.nan)
    skipped = [[] for _ in range(nt)]

    def run_row(it):
        t = ts[it]
        p_t = evolve(p0, scenario.params, t)
        ptil = None
        if scenario.companion != "neg_identity":
            src = evolve(p0, scenario.params, -t) if time_reversed(scenario.companion) else p_t
            ptil = companion_profile(src, scenario.companion)
        for ix, x in enumerate(xs):
            try:
                solved = solve_origin(p_t, ptil, x, rules, threshold)
                # role swap: the partner field solves P~ = G~ (id + P P~)
                pair = solve_origin(ptil, p_t, x, rules, threshold) if coupled else None
            except PatchError as err:
                err.t = t
                det2_vals[it, ix] = err.det2_value
                if not skip_on_patch_error:
                    raise
                skipped[it].append((it, ix, float(t), float(x), err.det2_value))
                continue
            (det2_vals[it, ix], center[it, ix], slice_y[it, ix], slice_z[it, ix],
             berr[it, ix]) = solved
            if coupled:
                center_tilde[it, ix] = pair[1]
                berr[it, ix] = max(berr[it, ix], pair[4])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_row, range(nt)))
    else:
        for it in range(nt):
            run_row(it)

    field_out = SolutionField(xs=xs, ts=ts, quad=quad, center=center,
                              slice_y=slice_y, slice_z=slice_z,
                              center_tilde=center_tilde)
    flat_skips = [s for row in skipped for s in row]
    report = PatchReport(det2=det2_vals, threshold=threshold, skipped=flat_skips,
                         backward_error=berr)
    return field_out, report
