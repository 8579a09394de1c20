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
returning det2 and the edges of G:

* dense, solve_edges: builds the block matrix I + WQ with the quadrature
  weights folded in on the left of Q, factors it once (lapack.LU), and
  reads det2 and the edges of G from that one factor;
* low-rank: P ~ U V from a randomized range finder and HankelFFT (block
  Hankel products by FFT), then det2 by Sylvester's identity and the
  edges by Woodbury on an r x r core; no k x k array is formed.  A run's
  samples solve as one batch in a number of numpy calls that does not
  grow with their count: the cores are one stack, det2 one batched
  slogdet and each Woodbury solve one batched solve, and every Hankel
  product of the batch is one FFT product through the run's transforms.

A Run keeps the low-rank factors only when the rank r <= k/4 (k = K m
unknowns), and each of its samples keeps the low-rank answer only when
its backward error, measured with the sample's exact Hankel operators,
is at most the scenario's solver_tol; otherwise the dense path runs.  No
size decides the path: the rank of the data does.
evaluate_solution skips a sample whose backward error exceeds solver_tol
on either path, as it skips one whose det2 is below the patch threshold.

x enters Q only as a shift of the data, so on the node lattice the Q of
x + l h is the window from node l of one larger Q built at x:
Q(x + l h)[i][j] = Q_ext[i + l][j + l], and its P is the column window
P(x + l h) = H[:, l:l+K] of the K x (K+e) block Hankel matrix H of the
data from x on.  evaluate_solution splits each t row's x samples into
runs (x_runs: consecutive samples a whole number of steps h apart,
spanning at most N of them), and solve_runs builds one Run per run, rule
and field, and drops it once its samples are solved: one range finder on
H, then either V = U^H H and T of the whole run, whose range holds every
sample's P, or, where the rank passes k/4, one extended Q (assemble_Q's
extension; none for neg_identity, whose samples each take their kdv_Q, a
free view).  combine_rules turns a sample's outcomes on its rules into
its values, the one Richardson combination, for evaluate_solution and
for solve_origin, which solves one sample on a Run of its own.
"""

from concurrent.futures import ThreadPoolExecutor
import copy
import math
from dataclasses import dataclass, field
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .companion import companion_profile, time_reversed
from .dispersion import evolve
from .gridkernel import sample_profile
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
    at some (x,t), so the solve cannot be certified there."""

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


def _hankel_sums(seq, vec):
    """The blocks sum_s seq[i+s] vec[s] for i = 0..len(seq) - len(vec): a
    block Hankel matrix times a block vector, one np.correlate per entry
    product, so the Hankel matrix is never gathered."""
    _, a, n = seq.shape
    m = vec.shape[2]
    out = np.zeros((len(seq) - len(vec) + 1, a, m), dtype=np.result_type(seq, vec))
    for i, j, k in np.ndindex(a, n, m):
        # correlate conjugates its second argument
        out[:, i, k] += np.correlate(seq[:, i, j], np.conj(vec[:, j, k]), "valid")
    return out


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
    for the trapezoid rule).  The first row and column are summed in
    full, the increments come from one matmul over delta's support, and
    each row adds them to the row above, shifted by one node.
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
    # row 0 transposed: Q[0][j]^T = sum_s b_{s+j}^T (w_s a_s)^T
    big[0] = _hankel_sums(b_vals.transpose(0, 2, 1),
                          (w[:, None, None] * a_vals[:K]).transpose(0, 2, 1)).transpose(2, 0, 1)
    big[1:, :, 0] = _hankel_sums(a_vals[1:], w[:, None, None] * b_vals[:K])
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


def solve_edges(Q, p, x, threshold=PATCH_THRESHOLD):
    """det2, the edges of G and the backward error of one Nystrom system
    on Q's rule: (det2, G(0,0), G(xi_i,0), G(0,xi_j), backward error).

    Only the edges of G are solved for: A = I + WQ is built and factored
    once, the factor gives det2 = det(A) e^{-tr(WQ)} in log space (an
    exactly singular A reports det2 = 0), the last block row solves
    row A = P_last with P_last[j] = p(xi_j + x), and the last block
    column is P Z (by HankelFFT) with A Z = E_last, the last block
    column of I; the factor is dropped once both are solved.  G(0,0) is
    the row's last block, written into the column as well, so the centre
    and both slices hold one value.  The backward error is the larger of
    max|row A - P_last| / max|P_last| and max|A Z - E_last|.
    A |det2| below threshold raises PatchError before any solve.
    """
    quad = Q.quad
    n, m, K = p.rows, p.cols, quad.node_count
    A, trace = nystrom_matrix(Q)
    del Q  # as large as A: free it before the factorisation
    lu = LU(A)
    d2 = _det2(*lu.slogdet(), trace)
    if abs(d2) < threshold:
        raise PatchError(d2, x=x)
    vals = hankel_values(p, x, quad)
    P_last = vals[quad.intervals:].transpose(1, 0, 2).reshape(n, K * m)
    row_big = lu.solve_rows(P_last)
    E_last = np.zeros((K * m, m), dtype=A.dtype)
    E_last[-m:] = np.eye(m)
    Z = lu.solve(E_last)
    del lu  # a k x k copy of A: free it before the product
    col = HankelFFT(vals).right(Z).reshape(K, n, m)
    row = row_big.reshape(n, K, m).transpose(1, 0, 2)
    col[-1] = row[-1]
    berr = max(np.abs(row_big @ A - P_last).max() / max(np.abs(P_last).max(), 1e-300),
               np.abs(A @ Z - E_last).max())
    return d2, row[-1], col, row, float(berr)


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
        Y = H.right(probes)
        for _ in range(2):
            Y -= U @ (U.conj().T @ Y)
        u, s, _ = np.linalg.svd(Y, full_matrices=False)
        top = s[0] if top is None else top
        new = u[:, s > SKETCH_TOL * top]
        if U.shape[1] + new.shape[1] > limit:
            return None
        if new.shape[1]:
            new -= U @ (U.conj().T @ new)
            U = np.hstack([U, np.linalg.qr(new)[0]])
        if new.shape[1] < block:
            return U
        block *= 2


class Run:
    """The solves of the samples x + l h, l = 0..e, of the pairing
    (p, ptil) on quad (k = K m unknowns per sample), and what they share.

    H is the K x (K+e) block Hankel matrix of the data from x on
    (hankel_values with an extension of e nodes), transformed once; the
    sample x + l h has P = H[:, l:l+K].  One range finder on H picks the
    path of the whole run.  Where the rank r is at most k/4, the run
    keeps U, an orthonormal (K n, r) basis of H's range, V = U^H H as
    (r, K+e, m) blocks, T = P~_tall (W U) as (K+e, m, r) blocks, with
    P~_tall the (K+e) x K block Hankel matrix of the companion, and the
    transforms H and Ht, the companion's K x (K+e) matrix, whose window
    at l is the sample's P~; Ht and P~_tall share one spectrum, and T and
    Ht are None for neg_identity (Q = -P).  U spans every sample's P, so
    node rows l..l+K-1 of V and T are the sample's own factors: P ~ U V,
    and WQ ~ X V with X = W T, or -W U for neg_identity.  Such a run
    solves one batch: the batch releases U, V and T (rank stays), and a
    second solve raises.  Otherwise the run keeps Q, the extended
    assemble_Q whose window at l is the sample's Q, or none for
    neg_identity, whose samples each take their kdv_Q, a free view.
    """

    def __init__(self, p, ptil, x, quad, extension=0):
        self.p, self.ptil, self.x, self.quad = p, ptil, x, quad
        n, m, K = p.rows, p.cols, quad.node_count
        E = K + extension
        self.vals = hankel_values(p, x, quad, extension)
        H = HankelFFT(self.vals, K)
        self.U = _range_basis(H, K * m // 4)
        self.rank = None if self.U is None else self.U.shape[1]
        self.H = self.Ht = self.V = self.T = self.Q = None
        if self.U is not None:
            self.H = H
            self.V = H.left(self.U.conj().T).reshape(self.rank, E, m)
            if ptil is not None:
                self.Ht = HankelFFT(hankel_values(ptil, x, quad, extension), K)
                self.T = self.Ht.with_rows(E).right(
                    np.repeat(quad.weights, n)[:, None] * self.U).reshape(E, m, self.rank)
        elif ptil is not None:
            self.Q = assemble_Q(p, ptil, x, quad, extension)

    def solve(self, offsets, xs=None, threshold=PATCH_THRESHOLD, tol=SOLVER_TOL):
        """One outcome per sample x + l h, l in offsets: solve_edges' tuple
        and the rank of its low-rank solve, or None where the dense one
        ran, as a pair; or the PatchError its det2 raised.

        xs are the samples' own positions (x + l h by default), which
        PatchError reports.  A run that kept factors solves its samples
        low-rank as one batch (_woodbury), and a sample whose backward
        error exceeds tol then solves dense alone, on its paired_Q; a run
        that kept none solves each sample dense, on its window of the
        run's Q or on its kdv_Q.
        """
        p, ptil, quad = self.p, self.ptil, self.quad
        if xs is None:
            xs = [self.x + l * quad.spacing for l in offsets]
        out = [None] * len(offsets) if self.rank is None else self._woodbury(offsets, xs, threshold)
        for i, (l, x) in enumerate(zip(offsets, xs)):
            done = out[i]
            if isinstance(done, PatchError) or done is not None and done[0][4] <= tol:
                continue
            try:
                # built in the call, so that no local here holds Q while
                # solve_edges factors I + WQ (it drops its own reference first)
                out[i] = solve_edges(kdv_Q(p, x, quad) if ptil is None
                                     else paired_Q(p, ptil, x, quad) if self.Q is None
                                     else self.Q.window(l), p, x, threshold), None
            except PatchError as err:
                out[i] = err.with_traceback(None)  # a traceback would hold the frames' arrays
        return out

    def _woodbury(self, offsets, xs, threshold):
        """Per sample, (solve_edges' tuple, r) from the run's factors, or
        the PatchError of a det2 below threshold; no k x k array is formed.

        The sample's factors give P ~ U V and WQ ~ X V (WQ = F P with
        F = W P~ W, or F = -W for neg_identity), and the r x r core
        C = I_r + V X stands in for A = I + WQ: det2 = det(C) e^{-tr(V X)}
        (Sylvester), and Woodbury, A^{-1} = I - X C^{-1} V, gives the last
        block row of G, P_last A^{-1}, and Z = A^{-1} E_last, whose image
        P Z is the last block column.  Each step runs once over the batch:
        the samples' windows of V and T are one strided view (every g-th
        window from the first offset, g the offsets' common step), the
        cores one stack (W = h I plus the end weights' excess, so no
        window is copied), det2 one batched slogdet, and the two Woodbury
        solves one batched solve each, on the samples whose |det2| is at
        least threshold (a singular core gives det2 = 0).  The batch then
        releases U, V and T, and every product with P or P~ runs once,
        through the run's H and Ht (right_windows, left_windows).  The
        backward error is solve_edges' measure with A applied through each
        sample's exact Hankel operators, never through the truncated
        factors, so it certifies the answer against the system the dense
        solve factors.
        """
        if self.V is None:
            raise RuntimeError("a low-rank Run solves one batch: its factors are released")
        ptil, quad, r = self.ptil, self.quad, self.rank
        n, m, K, N = self.p.rows, self.p.cols, quad.node_count, quad.intervals
        h, wn, wm = quad.spacing, np.repeat(quad.weights, n), np.repeat(quad.weights, m)
        lo = min(offsets)
        step = math.gcd(*(l - lo for l in offsets)) or 1
        win = [(l - lo) // step for l in offsets]  # each sample's window
        count = max(win) + 1
        cols = slice(lo * m, (lo + step * (count - 1)) * m + 1, step * m)
        Em = self.V.shape[1] * m
        V = sliding_window_view(self.V.reshape(r, Em), K * m, axis=1)[:, cols].transpose(1, 0, 2)
        T = (-self.U[None] if ptil is None else
             sliding_window_view(self.T.reshape(Em, r), K * m, axis=0)[cols].transpose(0, 2, 1))
        self.U = self.V = self.T = None  # V and T above hold them until the cores' products
        nodes = lo + step * np.arange(count)[:, None] + np.arange(K)
        P_last = self.vals[N + nodes].transpose(0, 2, 1, 3).reshape(count, n, K * m)
        ends = np.flatnonzero(wm != h)  # the columns whose weight is not h
        C = V @ T
        C *= h
        C += (V[..., ends] * (wm[ends] - h)) @ T[:, ends]
        trace = np.trace(C, axis1=1, axis2=2)
        C[:, np.arange(r), np.arange(r)] += 1.0
        d2 = _det2(*np.linalg.slogdet(C), trace)
        out = [None] * len(offsets)
        kept = []
        for i, (w, x) in enumerate(zip(win, xs)):
            if abs(d2[w]) < threshold:
                out[i] = PatchError(d2[w], x=x)
            else:
                kept.append(i)
        if not kept:
            return out
        S = len(kept)
        win = [win[i] for i in kept]
        at = [offsets[i] for i in kept]
        solved = sorted(set(win))  # np.unique would import numpy.ma, 1.6 MB
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
        del V, T, C, PX, Y, B
        rows, Z, P_last = rows[win], Z[win], P_last[win]
        Z = Z.transpose(1, 0, 2).reshape(K * m, S * m)
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
        scale = np.maximum(np.abs(P_last).max(axis=(1, 2)), 1e-300)
        berr = np.maximum(np.abs(rows + PFL - P_last).max(axis=(1, 2)) / scale, col_err)
        PZ = PZ.reshape(K, n, S, m)
        for s, i in enumerate(kept):
            row = rows[s].reshape(n, K, m).transpose(1, 0, 2)
            col = PZ[:, :, s].copy()
            col[-1] = row[-1]
            out[i] = (d2[win[s]], row[-1], col, row, float(berr[s])), r
        return out


def combine_rules(outcomes):
    """One sample's solve from its outcomes on each rule (Run.solve's):
    (det2, G(0,0), G(xi_i,0), G(0,xi_j), backward error, ranks), the two
    slices over the nodes of the first rule; the first PatchError among
    them is raised, and outcomes may be a generator, read no further.

    ranks holds each rule's low-rank rank, or None where the dense solve
    ran, and the backward error is the larger over the rules.  With two
    rules from quadrature_rules the values are Richardson-extrapolated,
    (4*fine - coarse)/3 with the fine rule read at every second node, and
    det2 is the fine rule's.
    """
    solved = []
    for outcome in outcomes:
        if isinstance(outcome, PatchError):
            raise outcome
        solved.append(outcome)
    out, ranks = zip(*solved)
    if len(out) == 1:
        return out[0] + (ranks,)
    (_, *coarse, berr_c), (d2, centre, col, row, berr_f) = out
    # combined in complex arithmetic whatever the rules' dtypes, so the
    # values equal the combination of two plain runs' complex tables
    fine = (centre, col[::2], row[::2])
    return ((d2,) + tuple((4.0 * f.astype(complex) - c) / 3.0
                          for f, c in zip(fine, coarse))
            + (max(berr_c, berr_f), ranks))


def solve_origin(p, ptil, x, rules, threshold=PATCH_THRESHOLD, tol=SOLVER_TOL):
    """combine_rules of one sample's solves on each of rules, each on a
    Run of this one sample: (det2, G(0,0), G(xi_i,0), G(0,xi_j), backward
    error, ranks).  (p, ptil) is a pairing, Q = -P when ptil is None.  A
    |det2| below threshold on either rule raises PatchError, and a rule
    after it is not solved.
    """
    return combine_rules(Run(p, ptil, x, quad).solve([0], [x], threshold, tol)[0]
                         for quad in rules)


def x_runs(xs, grid, quad):
    """xs split into runs of consecutive samples whose master nodes lie
    whole multiples of quad's spacing h apart, spanning at most N steps
    of h.  One (x, offsets) per run: x is its leftmost sample, and each
    sample's offset is its distance from x in steps of h, in xs order."""
    r, N = quad.stride, quad.intervals
    nodes = [grid.node_index(x - 2.0 * quad.truncation) for x in xs]
    runs = []
    for i, node in enumerate(nodes):
        span = [nodes[j] for j in runs[-1]] + [node] if runs else []
        if span and (node - span[0]) % r == 0 and max(span) - min(span) <= N * r:
            runs[-1].append(i)
        else:
            runs.append([i])
    out = []
    for run in runs:
        low = min(run, key=nodes.__getitem__)
        out.append((xs[low], [(nodes[i] - nodes[low]) // r for i in run]))
    return out


def solve_runs(p, ptil, xs, quad, threshold=PATCH_THRESHOLD, tol=SOLVER_TOL):
    """Run.solve's outcome for every sample of xs on quad, in xs order:
    one Run per run of samples (x_runs), built as a temporary that is
    dropped once its batch returns, so no two runs of one caller are
    alive at once.  Every run tries the range finder once, whatever its
    size, and its path depends only on its data, never on which thread
    solves it."""
    out = []
    for x, offsets in x_runs(xs, p.grid, quad):
        out += Run(p, ptil, x, quad, max(offsets)).solve(
            offsets, xs[len(out): len(out) + len(offsets)], threshold, tol)
    return out


@dataclass
class SolutionField:
    """Solution samples on the (x,t) grid.

    center[it, ix] is g(0,0;x,t); slice_y[it, ix, i] is g(xi_i, 0; x,t)
    and slice_z[it, ix, j] is g(0, xi_j; x,t), both None when nothing
    reads them.  Skipped samples hold NaN.  center_tilde is filled only
    for the coupled system.
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
    """det2 and backward-error bookkeeping over the sample grid, the
    skipped samples (it, ix, t, x, det2, reason), the rank of every solve
    (Run.solve's: r for a low-rank solve, None for a dense one; per rule
    and field of each solved sample), and the threads the run used: row
    workers, and the OpenBLAS count they ran at (None where it could not
    be set).  A sample is skipped for its "det2" (below the patch
    threshold) or its "backward_error" (above solver_tol, which the
    backward_error array still records)."""

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

    pairings gives each t row's evolved data and its companion; per
    sample, solve, check det2, and record the centre value, the two
    slices through the origin, and det2.  Per field and rule, each run
    of x samples a whole number of quadrature steps apart solves in one
    call (solve_runs), and combine_rules combines each sample's rules,
    reporting the first PatchError in (field, rule) order.  The slices are
    kept only when the scenario's outputs read them ("slices",
    or "residuals" of a kind with a kernel form).  Samples are
    independent; rows of constant t are distributed over threads and
    written into index-addressed arrays, so the output does not depend on
    scheduling.  Rows that read p at the same times (t and -t for
    time-reversed maps) run as one task, so each distinct time is evolved
    once and only the running tasks' profiles are held.
    The pool has min(threads, CPUs) workers, and OpenBLAS runs at one
    thread while it works, whatever the layout: the round-off of its
    factorisations and products depends on its thread count, so one
    count for every layout keeps the output the same at every --threads.

    When |det2| falls below the patch threshold the sample is recorded
    as skipped (NaN field values) and the run continues, unless
    skip_on_patch_error=False, in which case the PatchError propagates
    with its (x,t) location.  A sample whose backward error exceeds
    solver_tol is skipped the same way, and never raises.
    """
    xs = np.asarray(scenario.xs, dtype=float)
    ts = np.asarray(scenario.ts, dtype=float)
    n, m = scenario.n, scenario.m
    quad = scenario.quad
    K = quad.node_count
    nt, nx = ts.size, xs.size
    kind = scenario.kind
    threshold = scenario.tolerances["patch_threshold"]
    tol = scenario.tolerances["solver_tol"]

    p0 = sample_profile(scenario.initial, scenario.grid, n, m)
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
    skipped = [[] for _ in range(nt)]
    ranks = [[] for _ in range(nt)]

    reverse = time_reversed(kind.companion)
    tasks = {}
    for it, t in enumerate(ts):
        tasks.setdefault(abs(t) if reverse else t, []).append(it)

    def run_rows(rows):
        for it, (p_t, ptil) in zip(rows, pairings(p0, kind.params, kind.companion, ts[rows])):
            t = ts[it]
            # role swap: the partner field solves P~ = G~ (id + P P~)
            fields = ((p_t, ptil), (ptil, p_t)) if kind.coupled else ((p_t, ptil),)
            # per field and rule, every sample's outcome, one batch per run
            outcomes = [[solve_runs(f, g, xs, q, threshold, tol) for q in rules]
                        for f, g in fields]
            for ix, x in enumerate(xs):
                try:
                    solved = [combine_rules(per_rule[ix] for per_rule in per_field)
                              for per_field in outcomes]
                except PatchError as err:
                    err.t = t
                    det2_vals[it, ix] = err.det2_value
                    if not skip_on_patch_error:
                        raise
                    skipped[it].append((it, ix, float(t), float(x), err.det2_value, "det2"))
                    continue
                det2_vals[it, ix] = solved[0][0]
                berr[it, ix] = max(s[4] for s in solved)
                if not berr[it, ix] <= tol:
                    skipped[it].append((it, ix, float(t), float(x), solved[0][0],
                                        "backward_error"))
                    continue
                center[it, ix] = solved[0][1]
                if slice_y is not None:
                    slice_y[it, ix], slice_z[it, ix] = solved[0][2:4]
                if kind.coupled:
                    center_tilde[it, ix] = solved[1][1]
                for s in solved:
                    ranks[it].extend(s[5])

    workers = min(threads, cores())
    with one_blas_thread() as blas_threads, ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_rows, tasks.values()))

    field_out = SolutionField(xs=xs, ts=ts, quad=quad, center=center,
                              slice_y=slice_y, slice_z=slice_z,
                              center_tilde=center_tilde)
    flat_skips = [s for row in skipped for s in row]
    report = PatchReport(det2=det2_vals, skipped=flat_skips, backward_error=berr,
                         ranks=[r for row in ranks for r in row],
                         workers=workers, blas_threads=blas_threads)
    return field_out, report
