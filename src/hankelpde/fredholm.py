"""Nystrom layer: Q assembly, Fredholm solve, det2 patch monitor.

The linearising identity is P = G(id + Q) on the half line (-inf, 0],
truncated to [-L, 0] with composite trapezoid quadrature.  All kernels
carry matrix blocks per node pair and their rule; compose is the
quadrature product of two kernels, and Q = P~ o P, the composition of
the companion and data Hankel kernels, is built from their Hankel
structure by assemble_Q.  Every kind's pairs (p, p~) come from pairings
and its Q from paired_Q.  The unknown G multiplies (id + Q) from the
left, so the row is solved in transposed orientation (unknown rows,
matrix acting from the right); plain transposes, never conjugate ones.

Run.solve is the one place a sample's path is chosen, each path
returning det2, the last block row of G and Z = A^{-1} E_last:

* dense, solve_edges: builds the block matrix I + WQ with the quadrature
  weights folded in on the left of Q, factors it once (lapack.LU), and
  reads det2, the row and Z from that one factor;
* low-rank: P ~ U V, U an orthonormal basis of the data's block Hankel
  range, in closed form for exponential data (their exp_tag) and from
  a randomized range finder otherwise, and V by HankelFFT (block
  Hankel products by FFT), then det2 by Sylvester's identity and the
  row and Z by Woodbury on an r x r core; no k x k array is formed.  A
  run's samples solve as one batch in a number of numpy calls that does
  not grow with their count: the cores are one stack, det2 one batched
  slogdet and each Woodbury solve one batched solve.

One batched check serves both paths (Run._edges): through the run's
transforms of P and P~ it forms each sample's last block column P Z and
its backward error, with A = I + WQ applied through the sample's exact
Hankel operators, so an error in the truncated factors or in the
assembled Q shows in it.  The result is one Edges record per sample,
also where det2 falls below the patch threshold: such a sample solves
nothing, and its record has no row or column.

A Run keeps its low-rank basis only when the rank r <= k/4 (k = K m
unknowns), and each of its samples keeps the low-rank answer only when
its backward error is at most the scenario's solver_tol; otherwise the
dense path runs.  No size decides the path: the rank of the data does.
evaluate_solution skips a sample whose backward error exceeds solver_tol
on either path, as it skips one whose det2 is below the patch threshold;
PatchError is raised only by a caller that asks for one.

x enters Q only as a shift of the data, so on the node lattice the Q of
x + l h is the window from node l of one larger Q built at x:
Q(x + l h)[i][j] = Q_ext[i + l][j + l], and its P is the column window
P(x + l h) = H[:, l:l+K] of the K x (K+e) block Hankel matrix H of the
data from x on.  solve_samples, the one entry point, splits the x
samples into runs (x_runs: samples a whole number of steps h apart,
wherever they sit in xs, spanning at most N of them), and builds one
Run per run and rule, dropped once its samples are solved: one basis U
of H's range (closed form or range finder), which holds every sample's
P, or, where the rank passes k/4, one extended Q (assemble_Q's
extension; none for neg_identity, whose samples each take their kdv_Q,
a free view).  It returns one Edges per sample, in xs order, combined
over the rules by combine_rules, the one Richardson combination;
evaluate_solution calls it.

The coupled kind's partner needs no solve of its own.  Its pairing at t
is P~_t = P_{-t}^T, so by the push-through identity
(I + P~P)^{-1} P~ = P~ (I + P P~)^{-1} its partner G~ at t is G at -t,
transposed: evaluate_solution reads it from the solve at -t.

Nor does the row at -t of a conjugation-reversible kind on exactly real
data (kinds.ResolvedKind.conjugation_reversible: the NLS kinds).  There
p_{-t} = conj p_t, every companion map commutes with conjugation, and so
Q_{-t} = conj Q_t and G(x,-t) = conj G(x,t): evaluate_solution solves
the non-negative member of each pair t, -t of sample times and fills the
other row with the conjugated records (Edges.conjugate).  No check is
skipped: a conjugated record solves the conjugated system exactly as
its source solves its own, conj(R) conj(A) - conj(P) = conj(R A - P),
so it carries its source's backward error, and a skip at t is the same
skip at -t.
"""

from concurrent.futures import ThreadPoolExecutor
import copy
import math
from dataclasses import dataclass, field, replace
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .companion import companion_profile, time_reversed
from .dispersion import evolve
from .lapack import LU, cores, one_blas_thread

PATCH_THRESHOLD = 1e-8
SOLVER_TOL = 1e-10
# the range finder keeps the directions whose sketched singular value
# exceeds SKETCH_TOL times the first sketch's largest, drawing
# _SKETCH_BLOCK probes in its first round and doubling the block each
# round after (_probes, restarted on every call)
SKETCH_TOL = 1e-13
_SKETCH_BLOCK = 8


class PatchError(Exception):
    """Poor representative coordinate patch: |det2| fell below threshold
    at some (x,t), so the solve cannot be certified there.  Raised by the
    callers that ask for it, from a skipped sample's Edges."""

    def __init__(self, det2_value, x=None, t=None):
        super().__init__(det2_value)
        self.det2_value, self.x, self.t = det2_value, x, t

    def __str__(self):
        where = "" if self.t is None else " t=%g" % self.t
        return "det2 = %g below patch threshold at x=%s%s" % (abs(self.det2_value), self.x, where)


@dataclass(frozen=True)
class Edges:
    """One sample's solve, on one rule or combined over its rules: det2,
    the last block column G(xi_i, 0) and row G(0, xi_j) of G over the
    nodes of the (first) rule, whose last blocks both hold the centre
    G(0,0) = row[-1], the backward error, and ranks, per rule the rank of
    its low-rank solve or None where the dense one ran.  A sample whose
    |det2| fell below the patch threshold solved nothing: col and row are
    None and berr is NaN."""

    det2: complex
    col: np.ndarray
    row: np.ndarray
    berr: float
    ranks: tuple

    def conjugate(self):
        """The record of the conjugated system: det2, col and row
        conjugated, the same backward error and ranks."""
        return Edges(np.conj(self.det2), None if self.col is None else self.col.conj(),
                     None if self.row is None else self.row.conj(), self.berr, self.ranks)


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite trapezoid rule on [-L, 0] with N intervals.

    Nodes are xi_j = -L + j*h for j = 0..N, h = L/N; h must be an
    integer multiple of the master spacing h_x (stride) so kernel
    arguments land on master nodes exactly.
    """

    truncation: float
    intervals: int
    stride: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def spacing(self):
        return self.truncation / self.intervals

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
    return QuadratureGrid(truncation=float(L), intervals=int(N), stride=stride,
                          nodes=nodes, weights=weights)


@dataclass(frozen=True)
class DiscreteKernel:
    """Two-argument kernel sampled at quadrature node pairs.

    blocks has shape (K, K, a, b) with K = quad.node_count; blocks[i, j]
    is the a x b matrix value at (xi_i, xi_j).  An extended kernel
    (assemble_Q's extension e) has K + e nodes per side, xi_i = -L + i h
    running past 0, and only window reads it.
    """

    quad: QuadratureGrid
    blocks: np.ndarray = field(repr=False)

    def big(self):
        """Flattened (K*a, K*b) matrix with blocks laid out in node order."""
        K, _, a, b = self.blocks.shape
        return self.blocks.transpose(0, 2, 1, 3).reshape(K * a, K * b)

    def window(self, offset):
        """The K x K kernel from node offset on: for an extended Q built
        at x, the Q of the sample x + offset h."""
        K = self.quad.node_count
        return DiscreteKernel(self.quad, self.blocks[offset: offset + K, offset: offset + K])

    @classmethod
    def from_big(cls, mat, quad):
        K = quad.node_count
        blocks = mat.reshape(K, mat.shape[0] // K, K, mat.shape[1] // K)
        return cls(quad=quad, blocks=blocks.transpose(0, 2, 1, 3))


def hankel_values(p, x, quad, extension=0):
    """Profile samples at the 2N+1+e distinct arguments xi_i + xi_j + x
    (i, j = 0..N+e for an extension of e nodes).

    The arguments are x - 2L + u*h for u = 0..2N+e; all must be master
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
    top = base + (2 * N + extension) * r
    if top >= grid.node_count:
        raise ValueError("argument x=%g reaches past the master domain "
                         "(need node %d of %d); enlarge X"
                         % (x + extension * quad.spacing, top, grid.node_count))
    if abs(quad.spacing - r * grid.spacing) > 1e-9 * grid.spacing:
        raise ValueError("quadrature spacing %g is not %d master spacings %g"
                         % (quad.spacing, r, grid.spacing))
    vals = p.samples[base: top + 1: r]
    return vals if vals.imag.any() else vals.real


def hankel_windows(vals, K):
    """The K x K block Hankel matrix H[i, j] = vals[i + j] as a read-only
    (K, K, a, b) strided view of vals; nothing is gathered."""
    return sliding_window_view(vals, K, axis=0).transpose(0, 3, 1, 2)


def compose(A, B):
    """Quadrature composition of two kernels on A's rule: blocks
    sum_k w_k A[i,k] B[k,j], with A's a x c blocks pairing B's c x b."""
    w = np.repeat(A.quad.weights, B.blocks.shape[2])
    return DiscreteKernel.from_big(A.big() @ (w[:, None] * B.big()), A.quad)


def assemble_Q(p, p_tilde, x, quad, extension=0):
    """Quadrature of q(y,z;x) = integral of ptilde(y+xi+x) p(xi+z+x) dxi.

    Only the inner dimensions must pair: p has n x m blocks and p_tilde
    a x n, and the result has a x m blocks with
    Q[i][j] = sum_s w_s ptilde(xi_i+xi_s+x) p(xi_s+xi_j+x).  A companion
    pairing (a = m) gives the square blocks the Nystrom solve needs.

    Both factors are Hankel, so Q is built in O(K^2) block products, not
    compose's O(K^3).  With a_u = ptilde(xi_0+xi_u+x), b_u = p(xi_0+xi_u+x)
    and delta_s = w_{s-1} - w_s (w_{-1} = w_{N+1} = 0),
    Q[i+1][j+1] - Q[i][j] = sum_s delta_s a_{i+s} b_{s+j}, and delta is
    zero wherever neighbouring weights agree (all but s = 0, 1, N, N+1
    for the trapezoid rule).  The first row and column are block Hankel
    products, taken by HankelFFT, the increments come from one matmul
    over delta's support, and each row adds them to the row above,
    shifted by one node.
    compose of the two Hankel kernels (hankel_windows) is the reference.

    x enters only as a shift, xi_i + l h = xi_{i+l}, so an extension of
    e nodes gives the (K+e) x (K+e) kernel whose window at offset l is
    the Q of x + l h for every l = 0..e: the same recurrence over longer
    sequences (the quadrature and delta stay those of the rule).
    """
    if p_tilde.cols != p.rows:
        raise ValueError("companion dims %r do not pair with profile dims %r"
                         % ((p_tilde.rows, p_tilde.cols), (p.rows, p.cols)))
    a_vals = hankel_values(p_tilde, x, quad, extension)
    b_vals = hankel_values(p, x, quad, extension)
    K, w = quad.node_count, quad.weights
    E = K + extension
    a, n, m = p_tilde.rows, p.rows, p.cols
    delta = -np.diff(w, prepend=0.0, append=0.0)
    steps = np.flatnonzero(delta)
    big = np.empty((E, a, E, m), dtype=np.result_type(a_vals, b_vals))
    # row 0: Q[0][j] = sum_s (w_s a_s) b_{s+j}, a row of blocks times the
    # K x E Hankel matrix of b; column 0: Q[i][0] = sum_s a_{i+s} (w_s b_s)
    wa = (w[:, None, None] * a_vals[:K]).transpose(1, 0, 2).reshape(a, K * n)
    big[0] = HankelFFT(b_vals, K).left(wa).reshape(a, E, m)
    wb = (w[:, None, None] * b_vals[:K]).reshape(K * n, m)
    big[1:, :, 0] = HankelFFT(a_vals, E).right(wb).reshape(E, a, m)[1:]
    nodes = np.arange(E - 1)
    left = delta[steps, None, None] * a_vals[nodes[:, None] + steps]
    right = b_vals[steps[:, None] + nodes]
    np.matmul(left.transpose(0, 2, 1, 3).reshape((E - 1) * a, steps.size * n),
              right.transpose(0, 2, 1, 3).reshape(steps.size * n, (E - 1) * m),
              out=big.reshape(E * a, E * m)[a:, m:])
    for i in range(1, E):
        big[i, :, 1:] += big[i - 1, :, :-1]
    return DiscreteKernel(quad, big.transpose(0, 2, 1, 3))


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
    return DiscreteKernel(quad=quad, blocks=hankel_windows(vals, quad.node_count))


def pairings(p0, params, companion, ts):
    """[(p_t, p~_t) for t in ts]: the data at time t and its companion,
    the map of p0 evolved to -t for time-reversed maps, else of p_t; None
    for neg_identity (Q = -P).  Each distinct time is evolved once, so a
    time-reversed map on a grid symmetric about t = 0 reuses every
    profile it evolves.  At t = 0, p_t is p0 itself."""
    reverse = time_reversed(companion)
    evolved = {}
    for t in list(ts) + ([-t for t in ts] if reverse else []):
        if t not in evolved:
            evolved[t] = evolve(p0, params, t)
    if companion == "neg_identity":
        return [(evolved[t], None) for t in ts]
    return [(evolved[t], companion_profile(evolved[-t if reverse else t], companion))
            for t in ts]


def paired_Q(p, ptil, x, quad):
    """The composed kernel of a pairing at x: -P when ptil is None
    (neg_identity), else P~ o P."""
    return kdv_Q(p, x, quad) if ptil is None else assemble_Q(p, ptil, x, quad)


def nystrom_matrix(Q):
    """The Nystrom system matrix I + WQ and the trace of WQ.

    W holds the weights of Q's quadrature rule, one per block row of Q.  The
    weighted kernel is written straight into the result and the identity
    added on its diagonal in place, so no other k x k array is made.  A
    has the dtype of Q's blocks: real data give a real system.
    """
    K, _, a, b = Q.blocks.shape
    if a != b:
        raise ValueError("the Nystrom system needs square blocks, got %d x %d" % (a, b))
    A = np.empty((K * a, K * b), dtype=Q.blocks.dtype)
    np.multiply(Q.quad.weights[:, None, None, None], Q.blocks.transpose(0, 2, 1, 3),
                out=A.reshape(K, a, K, b))
    trace = np.trace(A)
    A.flat[::A.shape[1] + 1] += 1.0
    return A, trace


def quadrature_rules(quad, richardson):
    """The rules one sample is solved on: (quad,), or with Richardson
    extrapolation the pair (quad, its 2N refinement on quad's master spacing)."""
    if not richardson:
        return (quad,)
    return quad, make_quadrature(quad.truncation, 2 * quad.intervals,
                                 quad.spacing / quad.stride)


def _det2(sign, logabs, trace):
    """det2 = det(A) e^{-tr(WQ)} from det(A)'s sign and log modulus,
    elementwise over a stack; an exactly singular A (sign 0, log modulus
    -inf) gives 0.  A caller drops the samples whose |det2| is below the
    patch threshold."""
    with np.errstate(over="ignore"):  # past the float range det2 is inf
        return sign * np.exp(logabs - trace)


def solve_edges(Q, P_last, threshold=PATCH_THRESHOLD):
    """(det2, R, Z) of the Nystrom system A = I + WQ on Q's rule: the
    last block row R of G, with R A = P_last (n x K m, P_last[j] =
    p(xi_j + x)), and Z with A Z = E_last, the last block column of I.

    A is built and factored once, in place, and the factor gives det2 =
    det(A) e^{-tr(WQ)} in log space (an exactly singular A reports
    det2 = 0) and both solves.  A |det2| below threshold gives
    (det2, None, None): no solve runs.  Run.solve checks R and Z against
    the system itself (Run._edges), not against this A.
    """
    m = Q.blocks.shape[3]
    A, trace = nystrom_matrix(Q)
    del Q  # as large as A: free it before the factorisation
    lu = LU(A)
    d2 = _det2(*lu.slogdet(), trace)
    if abs(d2) < threshold:
        return d2, None, None
    E_last = np.zeros((len(A), m), dtype=A.dtype)
    E_last[-m:] = np.eye(m)
    return d2, lu.solve_rows(P_last), lu.solve(E_last)


def _fft_size(n):
    """The smallest 2^a 3^b 5^c at least n, a length numpy's FFT is fast at."""
    while True:
        rest = n
        for f in (2, 3, 5):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return n
        n += 1


def _block_product(F, G):
    """Per frequency, the matrix product of F's (p, q) and G's (q, c)
    blocks: (p, q, L) and (q, c, L) give (p, c, L).  p and q are block
    sizes (1 or 2 in practice), so the loops are short, and each product
    is written in place: temporaries as large as G cost more than the
    arithmetic.  G is consumed: the last block row's terms are formed in
    G's own blocks, and every row before it uses the last row's slot of
    the result for its terms, so only the result is allocated."""
    p, q, L = F.shape
    out = np.empty((p, G.shape[1], L), dtype=np.result_type(F, G))
    for i in range(p):
        np.multiply(F[i, 0, None], G[0], out=out[i])
        for j in range(1, q):
            out[i] += np.multiply(F[i, j, None], G[j], out=out[-1] if i < p - 1 else G[j])
    return out


class HankelFFT:
    """The R x C block Hankel matrix H[i, j] = vals[i + j] (a x b blocks,
    vals of shape (R + C - 1, a, b)), applied to blocks of vectors by FFT.
    R defaults to the square case, R = C = (len(vals) + 1) / 2.

    H Y is a linear convolution of vals with the node-reversed Y, read at
    the R lags from C - 1 on, so a cyclic transform of length
    >= len(vals) holds it without wrap-around; vals is transformed once,
    and the spectrum serves every shape of the same values (with_rows).
    Every transform runs along a contiguous last axis (the nodes), real
    (rfft) when vals is real; a complex operand of a real H is split into
    its real and imaginary parts.  right(Y) is H Y for Y of shape (C b, c);
    left(Y) is Y H for Y of shape (c, R a), computed as (H^T Y^T)^T, where
    H^T is the C x R block Hankel matrix of the transposed blocks.
    right_windows and left_windows apply the square windows H[:, l:l+R]
    to one block vector each, all in one product.
    """

    def __init__(self, vals, rows=None):
        self.R = (len(vals) + 1) // 2 if rows is None else rows
        self.C = len(vals) - self.R + 1
        self.a, self.b = vals.shape[1:]
        self.real = not np.iscomplexobj(vals)
        self.size = _fft_size(len(vals))
        self.spec = self._forward(np.moveaxis(vals, 0, -1))

    def with_rows(self, rows):
        """The rows x (R + C - rows) block Hankel matrix of the same
        values, on this one's spectrum: no transform."""
        other = copy.copy(self)
        other.R, other.C = rows, self.R + self.C - rows
        return other

    def _forward(self, arr):
        arr = np.ascontiguousarray(arr)
        return (np.fft.rfft if self.real else np.fft.fft)(arr, n=self.size, axis=-1)

    def _apply(self, spec, Y, rows, cols):
        """The rows x cols block Hankel matrix whose blocks' spectrum is
        spec (p, q, L) times Y of shape (cols q, c)."""
        q = spec.shape[1]
        return self._product(spec, np.moveaxis(Y.reshape(cols, q, -1)[::-1], 0, -1), rows, cols)

    def _product(self, spec, ops, rows, cols):
        """_apply's product with its operand ops, (q, c, cols): Y's blocks
        node-reversed, nodes last.  Each array is dropped once the next is
        formed, so a caller that hands over its operand holds no copy."""
        if self.real and np.iscomplexobj(ops):
            return (self._product(spec, ops.real, rows, cols)
                    + 1j * self._product(spec, ops.imag, rows, cols))
        p, c = spec.shape[0], ops.shape[1]
        ys = self._forward(ops)
        del ops
        prod = _block_product(spec, ys)
        del ys
        full = (np.fft.irfft if self.real else np.fft.ifft)(prod, n=self.size, axis=-1)
        del prod
        return np.moveaxis(full[..., cols - 1: cols - 1 + rows], -1, 0).reshape(rows * p, c)

    def right(self, Y):
        return self._apply(self.spec, Y, self.R, self.C)

    def left(self, Y):
        return self._apply(self.spec.transpose(1, 0, 2), Y.T, self.C, self.R).T

    def right_windows(self, Y, offsets, weights=None):
        """H[:, l:l+R] Y_s for the column blocks Y_s of Y, (R b, S c), one
        per offset l, as one (R a, S c) product: each Y_s, its rows scaled
        by weights (R b) where given, is placed at its node offset in one
        zero-padded (C b, S c) operand, which H takes whole."""
        return self._product(self.spec, self._padded(Y, offsets, weights), self.R, self.C)

    def _padded(self, Y, offsets, weights):
        """right_windows' operand, built as _product takes it."""
        R, C, S, b = self.R, self.C, len(offsets), self.b
        c = Y.shape[1] // S
        blocks = np.moveaxis(Y.reshape(R, b, S, c)[::-1], 0, -1)
        w = 1.0 if weights is None else np.moveaxis(weights.reshape(R, b)[::-1], 0, -1)[:, None]
        pad = np.zeros((b, S, c, C), dtype=Y.dtype)
        for s, l in enumerate(offsets):
            np.multiply(blocks[:, s], w, out=pad[:, s, :, C - l - R: C - l])
        return pad.reshape(b, S * c, C)

    def left_windows(self, Y, offsets):
        """Y_s H[:, l:l+R] for the row blocks Y_s of Y, (S c, R a), one per
        offset l, as one (S c, R b) product: Y is multiplied once, and
        each row block is read at its R-node column window from l."""
        R, S, b = self.R, len(offsets), self.b
        full = self.left(Y).reshape(S, -1, self.C * b)
        return np.concatenate([full[s, :, l * b: (l + R) * b] for s, l in enumerate(offsets)])


def _probes(drawn, count):
    """count probe values in [-1, 1), the draws drawn..drawn + count - 1
    of splitmix64 (Steele, Lea and Flood, OOPSLA 2014): each value is a
    fixed bijective mix of its counter, so a draw depends only on its
    index, and numpy.random is never imported."""
    z = np.arange(drawn + 1, drawn + count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)  # uint64 arithmetic wraps modulo 2^64
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    # the top 53 bits, exact in a double, on the grid of spacing 2^-52
    z >>= 11
    return z * 2.0 ** -52 - 1.0


def _range_basis(H, limit):
    """An orthonormal U with H ~ U U^H H to SKETCH_TOL, or None once its
    rank would pass limit.

    Adaptive randomized range finder (Halko, Martinsson and Tropp, SIAM
    Review 53, 2011): each round sketches H with a block of random
    probes, _SKETCH_BLOCK in the first round and twice the last round's
    after it, projects the sketch off U twice, and adds the directions
    whose singular value exceeds SKETCH_TOL times the first sketch's
    largest.  A round that keeps fewer directions than it drew probes has
    found the rest of the range and ends the search; one that would pass
    limit gives up before it orthogonalises them.  The probes are uniform
    on [-1, 1) (real and imaginary parts for complex H), drawn from
    _probes from index 0 on every call, so U depends only on H.
    """
    rows = H.C * H.b
    per_probe = rows if H.real else 2 * rows
    U = np.empty((H.R * H.a, 0), dtype=float if H.real else complex)
    top = None
    drawn = 0
    block = _SKETCH_BLOCK
    while True:
        probes = _probes(drawn, per_probe * block).reshape(-1, block)
        drawn += probes.size
        if not H.real:
            probes = probes[:rows] + 1j * probes[rows:]
        # the columns are independent, so a wider round sketches them
        # 2 _SKETCH_BLOCK at a time: no transient outgrows the second round's
        parts = [H.right(probes[:, j:j + 2 * _SKETCH_BLOCK])
                 for j in range(0, block, 2 * _SKETCH_BLOCK)]
        Y = np.hstack(parts) if len(parts) > 1 else parts[0]
        del parts
        for _ in range(2):
            Y -= U @ (U.conj().T @ Y)
        u, s, _ = np.linalg.svd(Y, full_matrices=False)
        top = s[0] if top is None else top
        new = u[:, s > SKETCH_TOL * top]
        del probes, Y, u  # the next round's sketch runs without them
        if U.shape[1] + new.shape[1] > limit:
            return None
        if new.shape[1]:
            new -= U @ (U.conj().T @ new)
            U = np.hstack([U, np.linalg.qr(new)[0]])
        if new.shape[1] < block:
            return U
        block *= 2


def _exact_basis(tag, quad, real):
    """_range_basis in closed form for exponential data p = A e^{a s},
    tag = (a, A): an orthonormal U spanning H.

    H[i, j] = A e^{a (xi_i + xi_j + x)} separates: H = e^{a x}
    (c kron I_n) A (d kron I_m)^T with c_i = e^{a xi_i} over the rule's K
    nodes, so its range is c kron range(A), and U = (c / |c|) kron Q,
    with Q the left singular vectors of A whose singular values exceed
    SKETCH_TOL times the largest, the range finder's cut (H's singular
    values are A's times one common factor).  real says that H is real
    (hankel_values took the real part), and U is then real too.  U has
    at most min(n, m) columns, never more than Run's limit K m / 4: a
    rule has K >= 5 nodes (make_quadrature's N >= 4).
    """
    rate, amp = tag
    u, s, _ = np.linalg.svd(amp.real if real else amp, full_matrices=False)
    Q = u[:, s > SKETCH_TOL * s[0]]
    c = np.exp(rate * quad.nodes)
    return np.kron((c / np.linalg.norm(c))[:, None], Q)


class Run:
    """The solves of the samples x + l h, l = 0..e, of the pairing
    (p, ptil) on quad (k = K m unknowns per sample), and what they share.

    H is the K x (K+e) block Hankel matrix of the data from x on
    (hankel_values with an extension of e nodes), and Ht the companion's,
    each transformed once; the sample x + l h has P = H[:, l:l+K] and
    P~ = Ht[:, l:l+K], and Ht is None for neg_identity (Q = -P).  Every
    sample's answer is checked through them (_edges).  One basis of H's
    range picks the path of the whole run: in closed form for exp-tagged
    data (_exact_basis), else from one range finder on H
    (_range_basis).  Where the rank r is at most k/4, the run keeps U,
    an orthonormal (K n, r) basis of H's range, which spans every
    sample's P, and each batch takes its factors from it (_factors).
    Otherwise the run keeps Q, the extended assemble_Q whose window at l
    is the sample's Q, or none for neg_identity, whose samples each take
    their kdv_Q, a free view.  A Run keeps nothing from one solve to the
    next, so solving it again gives the same records.
    """

    def __init__(self, p, ptil, x, quad, extension=0):
        self.p, self.ptil, self.x, self.quad = p, ptil, x, quad
        K = quad.node_count
        self.vals = hankel_values(p, x, quad, extension)
        self.H = HankelFFT(self.vals, K)
        self.Ht = None if ptil is None else HankelFFT(hankel_values(ptil, x, quad, extension), K)
        self.U = (_range_basis(self.H, K * p.cols // 4) if p.exp_tag is None
                  else _exact_basis(p.exp_tag, quad, self.H.real))
        self.rank = None if self.U is None else self.U.shape[1]
        self.Q = (assemble_Q(p, ptil, x, quad, extension)
                  if self.U is None and ptil is not None else None)

    def solve(self, offsets, threshold=PATCH_THRESHOLD, tol=SOLVER_TOL):
        """One Edges per sample x + l h, l in offsets.

        A run that kept a basis solves its samples low-rank as one batch
        (_woodbury), and a sample whose backward error exceeds tol then
        solves dense, on its paired_Q; a run that kept none solves each
        sample dense, on its window of the run's Q or on its paired_Q.
        Each path's samples are checked as one batch (_edges).  A sample
        whose |det2| is below threshold on the path it took is skipped
        there, not solved again.
        """
        p, ptil, quad = self.p, self.ptil, self.quad
        out = ([None] * len(offsets) if self.rank is None
               else self._edges(offsets, self._woodbury(offsets, threshold), self.rank))
        redo = [i for i, e in enumerate(out)
                if e is None or (e.row is not None and not e.berr <= tol)]
        at = [offsets[i] for i in redo]
        # each Q built in the call, so that no local here holds it while
        # solve_edges factors I + WQ (it drops its own reference first)
        dense = [solve_edges(paired_Q(p, ptil, self.x + l * quad.spacing, quad)
                             if self.Q is None else self.Q.window(l),
                             self._last_rows([l])[0], threshold) for l in at]
        for i, edges in zip(redo, self._edges(at, dense, None)):
            out[i] = edges
        return out

    def _last_rows(self, at):
        """P_last of the samples at offsets at, as (S, n, K m): the last
        block row of each sample's P."""
        n, m, K, N = self.p.rows, self.p.cols, self.quad.node_count, self.quad.intervals
        nodes = N + np.add.outer(at, np.arange(K))
        return self.vals[nodes].transpose(0, 2, 1, 3).reshape(len(at), n, K * m)

    def _factors(self):
        """(V, T) of the run's basis U: V = U^H H as (r, K+e, m) blocks and
        T = P~_tall (W U) as (K+e, m, r) blocks, with P~_tall the (K+e) x K
        block Hankel matrix of the companion, which shares Ht's spectrum
        (T is None for neg_identity).  Node rows l..l+K-1 of V and T are
        the factors of the sample x + l h: P ~ U V, and WQ ~ X V with
        X = W T, or -W U for neg_identity."""
        n, m, r, E = self.p.rows, self.p.cols, self.rank, self.H.C
        V = self.H.left(self.U.conj().T).reshape(r, E, m)
        if self.ptil is None:
            return V, None
        WU = np.repeat(self.quad.weights, n)[:, None] * self.U
        return V, self.Ht.with_rows(E).right(WU).reshape(E, m, r)

    def _woodbury(self, offsets, threshold):
        """Per sample, (det2, R, Z) as solve_edges gives them, from the
        run's factors, or (det2, None, None) for a det2 below threshold;
        no k x k array is formed.

        The sample's factors give P ~ U V and WQ ~ X V (WQ = F P with
        F = W P~ W, or F = -W for neg_identity), and the r x r core
        C = I_r + V X stands in for A = I + WQ: det2 = det(C) e^{-tr(V X)}
        (Sylvester), and Woodbury, A^{-1} = I - X C^{-1} V, gives the last
        block row of G, P_last A^{-1}, and Z = A^{-1} E_last.  Each step
        runs once over the batch: the samples' windows of V and T are one
        strided view (every g-th window from the first offset, g the
        offsets' common step), the cores one stack (W = h I plus the end
        weights' excess, so no window is copied), det2 one batched
        slogdet, and the two Woodbury solves one batched solve each, on
        the samples whose |det2| is at least threshold (a singular core
        gives det2 = 0).
        """
        ptil, quad, r = self.ptil, self.quad, self.rank
        n, m, K = self.p.rows, self.p.cols, quad.node_count
        h, wm = quad.spacing, np.repeat(quad.weights, m)
        lo = min(offsets)
        step = math.gcd(*(l - lo for l in offsets)) or 1
        win = [(l - lo) // step for l in offsets]  # each sample's window
        count = max(win) + 1
        cols = slice(lo * m, (lo + step * (count - 1)) * m + 1, step * m)
        V, T = self._factors()
        Em = V.shape[1] * m
        V = sliding_window_view(V.reshape(r, Em), K * m, axis=1)[:, cols].transpose(1, 0, 2)
        T = (-self.U[None] if ptil is None else
             sliding_window_view(T.reshape(Em, r), K * m, axis=0)[cols].transpose(0, 2, 1))
        P_last = self._last_rows(lo + step * np.arange(count))
        ends = np.flatnonzero(wm != h)  # the columns whose weight is not h
        C = V @ T
        C *= h
        C += (V[..., ends] * (wm[ends] - h)) @ T[:, ends]
        trace = np.trace(C, axis1=1, axis2=2)
        C[:, np.arange(r), np.arange(r)] += 1.0
        d2 = _det2(*np.linalg.slogdet(C), trace)
        solved = sorted({w for w in win if not abs(d2[w]) < threshold})
        PX = ((P_last * wm) @ T)[solved]
        Y = np.zeros((count, n, r), np.result_type(C, PX))
        Y[solved] = np.linalg.solve(C[solved].transpose(0, 2, 1),
                                    PX.transpose(0, 2, 1)).transpose(0, 2, 1)
        B = np.zeros((count, r, m), Y.dtype)
        B[solved] = np.linalg.solve(C[solved], V[solved, :, -m:])
        rows = Y @ V
        np.subtract(P_last, rows, out=rows)
        Z = T @ B
        Z *= -wm[:, None]
        Z[:, -m:] += np.eye(m)
        return [(d2[w], rows[w], Z[w]) if w in solved else (d2[w], None, None) for w in win]

    def _edges(self, at, solved, rank):
        """The Edges of each sample at offsets at from its (det2, R, Z) in
        solved, one check for the whole batch; a sample with no R skipped
        on its det2, and its record holds only det2 and rank.

        The last block column is P Z, and the backward error the larger
        of max|R A - P_last| / max|P_last| and max|A Z - E_last|, with A
        applied through each sample's exact Hankel operators (H, Ht:
        right_windows, left_windows), never through the truncated
        factors or an assembled Q, so it certifies the answer against the
        system itself.  G(0,0) is R's last block, written into the column
        as well, so the centre and both slices hold one value.
        """
        out = [Edges(d2, None, None, math.nan, (rank,)) for d2, _, _ in solved]
        kept = [i for i, (_, R, _) in enumerate(solved) if R is not None]
        if not kept:
            return out
        ptil, quad = self.ptil, self.quad
        n, m, K = self.p.rows, self.p.cols, quad.node_count
        wn, wm = np.repeat(quad.weights, n), np.repeat(quad.weights, m)
        at, S = [at[i] for i in kept], len(kept)
        d2, rows, Z = zip(*(solved[i] for i in kept))
        rows, Z = np.stack(rows), np.hstack(Z)
        PZ = self.H.right_windows(Z, at)
        # the column check, A Z - E_last, first, so that Z is freed before
        # the row check's products
        FPZ = (-wm[:, None] * PZ if ptil is None
               else wm[:, None] * self.Ht.right_windows(PZ, at, wn))
        FPZ += Z
        FPZ[-m:] -= np.tile(np.eye(m), S)
        col_err = np.abs(FPZ).reshape(K * m, S, m).max(axis=(0, 2))
        del Z, FPZ
        rows_wm = rows.reshape(S * n, K * m) * wm
        FL = -rows_wm if ptil is None else self.Ht.left_windows(rows_wm, at) * wn
        del rows_wm
        PFL = self.H.left_windows(FL, at).reshape(S, n, K * m)
        del FL
        P_last = self._last_rows(at)
        scale = np.maximum(np.abs(P_last).max(axis=(1, 2)), 1e-300)
        berr = np.maximum(np.abs(rows + PFL - P_last).max(axis=(1, 2)) / scale, col_err)
        PZ = PZ.reshape(K, n, S, m)
        for s, i in enumerate(kept):
            row = rows[s].reshape(n, K, m).transpose(1, 0, 2)
            col = PZ[:, :, s].copy()
            col[-1] = row[-1]
            out[i] = Edges(d2[s], col, row, float(berr[s]), (rank,))
        return out


def combine_rules(solved):
    """One sample's Edges from its Edges on each rule, the slices over
    the nodes of the first rule and ranks joining the rules' ranks.  A
    sample skipped on some rule takes the record of the first such rule.

    Otherwise the backward error is the larger over the rules.  With two
    rules from quadrature_rules the slices are Richardson-extrapolated,
    (4*fine - coarse)/3 with the fine rule read at every second node,
    and det2 is the fine rule's.
    """
    skipped = [edges for edges in solved if edges.row is None]
    if skipped or len(solved) == 1:
        return replace((skipped or solved)[0], ranks=sum((e.ranks for e in solved), ()))
    coarse, fine = solved
    # combined in complex arithmetic whatever the rules' dtypes, so the
    # values equal the combination of two plain runs' complex tables
    col, row = ((4.0 * f[::2].astype(complex) - c) / 3.0
                for f, c in ((fine.col, coarse.col), (fine.row, coarse.row)))
    return Edges(fine.det2, col, row, max(coarse.berr, fine.berr), coarse.ranks + fine.ranks)


def x_runs(xs, grid, quad):
    """xs split into runs: samples on one lattice of quad's spacing h, in
    any order of xs, sorted and cut to span at most N steps of h.  One
    (x, indexes, offsets) per run: x its leftmost sample, indexes its
    samples' positions in xs, offsets their distances from x in steps of
    h, ascending."""
    r, N = quad.stride, quad.intervals
    nodes = [grid.node_index(x - 2.0 * quad.truncation) for x in xs]
    runs = []
    for i in sorted(range(len(xs)), key=lambda i: (nodes[i] % r, nodes[i])):
        gap = nodes[i] - nodes[runs[-1][0]] if runs else None
        if gap is not None and gap % r == 0 and gap <= N * r:
            runs[-1].append(i)
        else:
            runs.append([i])
    return [(xs[run[0]], run, [(nodes[i] - nodes[run[0]]) // r for i in run]) for run in runs]


def solve_samples(p, ptil, xs, rules, threshold=PATCH_THRESHOLD, tol=SOLVER_TOL):
    """One Edges per sample of xs, in xs order, combined over rules
    (combine_rules).  (p, ptil) is a pairing, Q = -P when ptil is None.

    Per rule, one Run per run of samples (x_runs) solves them as one
    batch, whose records go to the run's indexes: they depend neither on
    the order of xs nor on which thread solves them.  Each Run is a
    temporary, dropped once its batch returns, so no two runs of one
    caller are alive at once.  Every run takes one basis of its data's
    range (Run), whatever its size, and its path depends only on its
    data."""
    per_rule = []
    for quad in rules:
        records = [None] * len(xs)
        for x, indexes, offsets in x_runs(xs, p.grid, quad):
            batch = Run(p, ptil, x, quad, offsets[-1]).solve(offsets, threshold, tol)
            for i, edges in zip(indexes, batch):
                records[i] = edges
        per_rule.append(records)
    return [combine_rules(solved) for solved in zip(*per_rule)]


@dataclass
class SolutionField:
    """Solution samples on the (x,t) grid.

    center[it, ix] is g(0,0;x,t); slice_y[it, ix, i] is g(xi_i, 0; x,t)
    and slice_z[it, ix, j] is g(0, xi_j; x,t), both None when nothing
    reads them.  Skipped samples hold NaN.  center_tilde is filled only
    for the coupled system: the partner G~(x,t) = G(x,-t)^T.  copies
    maps each t row filled by conjugation to the row it conjugates.
    """

    xs: np.ndarray
    ts: np.ndarray
    quad: QuadratureGrid
    center: np.ndarray
    slice_y: np.ndarray
    slice_z: np.ndarray
    center_tilde: np.ndarray = None
    copies: dict = field(default_factory=dict)


@dataclass
class PatchReport:
    """det2 and backward-error bookkeeping over the sample grid, the
    skipped samples (it, ix, t, x, det2, reason), sorted by (it, ix), the
    rank of every system solved (Edges.ranks: r for a low-rank solve,
    None for a dense one): the ranks of every record solve_samples
    returned, once per solved time and sample, skipped samples included,
    since their factorisation or core ran; the coupled partner's solve at
    a -t that is no sample time counts, and a conjugated row adds none.
    Then the threads the run used: row workers, and the OpenBLAS count
    they ran at (None where it could not be set).  A sample is skipped
    for its "det2" (below the patch threshold) or its "backward_error"
    (above solver_tol, which the backward_error array still records); a
    coupled sample also for its partner's, checked after its own."""

    det2: np.ndarray
    skipped: list
    backward_error: np.ndarray
    ranks: list
    workers: int
    blas_threads: int

    @property
    def lowrank_solves(self):
        return sum(r is not None for r in self.ranks)

    @property
    def dense_solves(self):
        return sum(r is None for r in self.ranks)

    @property
    def max_rank(self):
        """The largest rank of a low-rank solve; None when none ran."""
        return max((r for r in self.ranks if r is not None), default=None)

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

    pairings evolves the scenario's data p0 to each solved time and gives
    its companion; per sample, solve, check det2, and record the centre
    value, the two slices through the origin, and det2.  Each solved
    time solves all its x samples in one call (solve_samples), a skip
    carrying the det2 of the first rule that failed.  The slices are
    kept only when the scenario's outputs read them ("slices", or
    "residuals" of a kind with a kernel form).

    The times to solve are fixed before any task runs: need, the sample
    times plus, for the coupled kind, their mirrors -t (the partner at t
    is the solve at -t, transposed); and copies, the t < 0 of need whose
    mirror -t is in need, when the kind is conjugation-reversible and
    the p0 samples are exactly real (no tolerance, as in hankel_values).
    A copy is not solved: its records are the conjugated records of the
    solve at -t, with the same backward error and skips (module
    docstring).  Rows are grouped into one task per |t|, which solves
    the members of {-|t|, |t|} in need and not in copies, so each time is
    evolved and solved once and only the running tasks' profiles are
    held.  Tasks write their rows into index-addressed arrays and return
    their skips and the ranks of the records they solved, so the output
    does not depend on scheduling, and the path depends only on the kind
    and the data, at every --threads.  The pool has min(threads, CPUs)
    workers, and OpenBLAS runs at one thread while it works, whatever the
    layout: the round-off of its factorisations and products depends on
    its thread count, so one count for every layout keeps the output the
    same at every --threads.

    When |det2| falls below the patch threshold the sample is recorded
    as skipped (NaN field values) and the run continues, unless
    skip_on_patch_error=False, in which case a PatchError is raised with
    its (x,t) location, at the first such sample in task order.  A
    sample whose backward error exceeds solver_tol is skipped the same
    way, and never raises.
    """
    xs = np.asarray(scenario.xs, dtype=float)
    ts = np.asarray(scenario.ts, dtype=float)
    p0 = scenario.p0
    n, m = p0.rows, p0.cols
    quad = scenario.quad
    K = quad.node_count
    nt, nx = ts.size, xs.size
    kind = scenario.kind
    threshold = scenario.tolerances["patch_threshold"]
    tol = scenario.tolerances["solver_tol"]

    rules = quadrature_rules(quad, scenario.richardson)

    center = np.full((nt, nx, n, m), np.nan, dtype=complex)
    slice_y = slice_z = None
    outputs = scenario.outputs
    if "slices" in outputs or ("residuals" in outputs and kind.has_kernel_form):
        slice_y = np.full((nt, nx, K, n, m), np.nan, dtype=complex)
        slice_z = np.full((nt, nx, K, n, m), np.nan, dtype=complex)
    center_tilde = np.full((nt, nx, m, n), np.nan, dtype=complex) if kind.coupled else None
    det2_vals = np.full((nt, nx), np.nan, dtype=complex)
    berr = np.full((nt, nx), np.nan)

    need = set(ts) | ({-t for t in ts} if kind.coupled else set())
    # G(x, -t) = conj G(x, t) (module docstring)
    mirrored = kind.conjugation_reversible and not p0.samples.imag.any()
    copies = {t for t in need if mirrored and t < 0 and -t in need}
    tasks = {}
    for it, t in enumerate(ts):
        tasks.setdefault(abs(t), []).append(it)

    def run_rows(a, rows):
        # dict.fromkeys: a = 0 is one time, -0.0 == 0.0
        at = [t for t in dict.fromkeys((a, -a)) if t in need and t not in copies]
        # per time, every sample's Edges
        solved = {t: solve_samples(p_t, ptil, xs, rules, threshold, tol)
                  for t, (p_t, ptil) in zip(at, pairings(p0, kind.params, kind.companion, at))}
        if -a in copies:
            solved[-a] = [e.conjugate() for e in solved[a]]
        skipped = []
        for it in rows:
            t = ts[it]
            # the sample's own solve first, then its coupled partner's
            mirror = (t, -t) if kind.coupled else (t,)
            for ix, x in enumerate(xs):
                edges = [solved[s][ix] for s in mirror]
                skip = next((e for e in edges if e.row is None), None)
                det2_vals[it, ix] = (skip or edges[0]).det2
                if skip is not None:
                    if not skip_on_patch_error:
                        raise PatchError(skip.det2, x, t)
                    skipped.append((it, ix, float(t), float(x), skip.det2, "det2"))
                    continue
                berr[it, ix] = max(e.berr for e in edges)
                if not berr[it, ix] <= tol:
                    skipped.append((it, ix, float(t), float(x), edges[0].det2, "backward_error"))
                    continue
                center[it, ix] = edges[0].row[-1]
                if slice_y is not None:
                    slice_y[it, ix], slice_z[it, ix] = edges[0].col, edges[0].row
                if kind.coupled:
                    center_tilde[it, ix] = edges[1].row[-1].T
        return skipped, [r for t in at for e in solved[t] for r in e.ranks]

    workers = min(threads, cores())
    with one_blas_thread() as blas_threads, ThreadPoolExecutor(max_workers=workers) as pool:
        done = list(pool.map(run_rows, tasks, tasks.values()))

    # -t is a sample time: no coupled kind is conjugation-reversible
    mirrors = {it: list(ts).index(-t) for it, t in enumerate(ts) if t in copies}
    field_out = SolutionField(xs=xs, ts=ts, quad=quad, center=center,
                              slice_y=slice_y, slice_z=slice_z,
                              center_tilde=center_tilde, copies=mirrors)
    report = PatchReport(det2=det2_vals,
                         skipped=sorted((s for skipped, _ in done for s in skipped),
                                        key=lambda s: s[:2]),
                         backward_error=berr, ranks=[r for _, ranks in done for r in ranks],
                         workers=workers, blas_threads=blas_threads)
    return field_out, report
