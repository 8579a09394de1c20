"""Residuals of the nonlinear equations and the structural identities.

Everything here is certification machinery: none of it feeds back into
the solver.  residuals(kind, field) gives every equation a solved field
obeys; all but kdv_primitive's are the unified flow
g_t - mu1 g_xx - mu2 g_xxx - 2 mu1 g g~ g - 3 mu2 (g g~ g_x + g_x g~ g),
whose partner g~ is the kind's companion map applied to the solved field
(companion_field), or for coupled_diffusion the solved partner.  The
stencils are centered and second order (5-point for the third
x-derivative) with a two-layer boundary exclusion; nonlocal kinds need
(x,t) grids symmetric about 0 in each reversed coordinate so reflected
samples exist on-grid.  A patch-skipped sample (NaN) spreads only over
the stencils that read it.
"""

from dataclasses import dataclass
import numpy as np

from .companion import companion_field, companion_parameters
from .fredholm import DiscreteKernel, assemble_Q, compose, hankel_values, nystrom_matrix


def _tr(F):
    return np.swapaxes(F, -1, -2)


def is_uniform(steps):
    """Whether all steps agree with the first to relative 1e-9."""
    return np.allclose(steps, steps[:1], rtol=1e-9, atol=0.0)


def _uniform_step(vals, label, minimum=5):
    vals = np.asarray(vals, dtype=float)
    if vals.size < minimum:
        raise ValueError("%s grid needs at least %d samples for the stencils, got %d"
                         % (label, minimum, vals.size))
    steps = np.diff(vals)
    if steps[0] <= 0 or not is_uniform(steps):
        raise ValueError("%s grid must be uniformly increasing" % label)
    return float(steps[0])


def _require_symmetric(vals, label):
    vals = np.asarray(vals, dtype=float)
    scale = max(1.0, float(np.abs(vals).max()))
    if not np.allclose(vals, -vals[::-1], rtol=0.0, atol=1e-9 * scale):
        raise ValueError("%s grid must be symmetric about 0 for this kind "
                         "(reflected samples must exist on-grid)" % label)


def sample_steps(kind, xs, ts):
    """(dx, dt) of sample axes the kind's residual stencils can use: each
    uniformly increasing with at least 5 samples, and symmetric about 0
    in each coordinate the kind reflects."""
    dx = _uniform_step(xs, "x")
    dt = _uniform_step(ts, "t")
    if kind.reflect_x:
        _require_symmetric(xs, "x")
    if kind.reflect_t:
        _require_symmetric(ts, "t")
    return dx, dt


def _interior(F):
    return F[2:-2, 2:-2]


def _d_t(F, dt):
    return (F[3:-1, 2:-2] - F[1:-3, 2:-2]) / (2.0 * dt)


def _d_x(F, dx):
    return (F[2:-2, 3:-1] - F[2:-2, 1:-3]) / (2.0 * dx)


def _d_xx(F, dx):
    return (F[2:-2, 3:-1] - 2.0 * F[2:-2, 2:-2] + F[2:-2, 1:-3]) / dx ** 2


def _d_xxx(F, dx):
    return (-F[2:-2, :-4] + 2.0 * F[2:-2, 1:-3]
            - 2.0 * F[2:-2, 3:-1] + F[2:-2, 4:]) / (2.0 * dx ** 3)


def _flow(F, C, M, Cx, dt, dx, params):
    """F_t - mu1 F_xx - mu2 F_xxx - 2 mu1 F M C - 3 mu2 (F M C_x + F_x M C).

    C, M and C_x are the interior centre, partner and centre x-derivative
    fields.  A term with a zero coefficient is left out, not multiplied by
    zero, so a skipped sample's NaN spreads only over the stencils the
    equation uses (mu2 = 0 leaves out the 5-point F_xxx).
    """
    mu1, mu2 = params.mu1, params.mu2
    Fi = _interior(F)
    R = _d_t(F, dt)
    if mu1 != 0:
        R = R - mu1 * _d_xx(F, dx) - 2.0 * mu1 * (Fi @ M @ C)
    if mu2 != 0:
        R = (R - mu2 * _d_xxx(F, dx) - 3.0 * mu2 * (Fi @ M @ Cx)
             - 3.0 * mu2 * (_d_x(F, dx) @ M @ C))
    return R


def stencil_reach(kind):
    """(t, x): how many samples either side of a residual sample the
    stencils of residuals(kind, field) read along each axis.  _d_t reads
    one step; x reads two where a term uses the 5-point _d_xxx (mu2 != 0
    in the kind's flow or, for coupled_diffusion, its partner's, and
    kdv_primitive), else one.  The companion's reflected reads land on
    the mirrored samples themselves, not beside them."""
    flows = [kind.params]
    if kind.coupled:
        flows.append(companion_parameters(kind.companion, kind.params))
    third = kind.name == "kdv_primitive" or any(p.mu2 != 0 for p in flows)
    return 1, 2 if third else 1


def residuals(kind, field):
    """(name, fields) of each equation the solved field obeys, every
    field on the interior samples; kind is a ResolvedKind.

    coupled_diffusion's G (field.center) and G~ (field.center_tilde)
    obey the flow with each other as partner, G~ under the companion
    parameters: rows coupled_g and coupled_g_tilde.  Any other kind
    gives its local PDE, named after it, and a kind with a kernel form,
    when the field holds the slices, one more row, <name>_slices: the
    flow at the (y, 0) and (0, z) slices, the latter on transposed
    operands, as (0, z) multiplies from the left.
    """
    G = np.asarray(field.center)
    dx, dt = sample_steps(kind, field.xs, field.ts)
    C, Cx = _interior(G), _d_x(G, dx)
    if kind.coupled:
        if field.center_tilde is None:
            raise ValueError("coupled residual needs the partner field")
        Gp = np.asarray(field.center_tilde)
        Cp = _interior(Gp)
        partner = companion_parameters(kind.companion, kind.params)
        return [("coupled_g", (_flow(G, C, Cp, Cx, dt, dx, kind.params),)),
                ("coupled_g_tilde", (_flow(Gp, Cp, C, _d_x(Gp, dx), dt, dx, partner),))]
    if kind.needs_square and G.shape[-1] != G.shape[-2]:
        raise ValueError("kind %r needs square matrix data" % (kind.name,))
    if kind.name == "kdv_primitive":
        return [(kind.name, (_d_t(G, dt) + _d_xxx(G, dx) - 3.0 * (Cx @ Cx),))]

    M = _interior(companion_field(G, kind.companion))
    rows = [(kind.name, (_flow(G, C, M, Cx, dt, dx, kind.params),))]
    if kind.has_kernel_form and field.slice_y is not None:
        C, M, Cx = (F[..., None, :, :] for F in (C, M, Cx))
        R1 = _flow(np.asarray(field.slice_y), C, M, Cx, dt, dx, kind.params)
        R2 = _tr(_flow(_tr(np.asarray(field.slice_z)), _tr(C), _tr(M), _tr(Cx),
                       dt, dx, kind.params))
        rows.append((kind.name + "_slices", (R1, R2)))
    return rows


def _kernel_from_callable(f, quad):
    """The kernel (y, z) -> f(y, z), a matrix or a scalar, at quad's node pairs."""
    K = quad.node_count
    vals = [np.asarray(f(y, z), dtype=complex) for y in quad.nodes for z in quad.nodes]
    return DiscreteKernel(quad, np.reshape(vals, (K, K) + np.atleast_2d(vals[0]).shape))


def product_rule_check(f, h, hp, fp, x, quad):
    """Both sides of the Hankel product rule, evaluated by quadrature.

    lhs[i,j] = [F d/dx(H H') F'](xi_i, xi_j; x) with the x-derivative of
    the composed kernel taken by centered differences, rhs[i,j] =
    [F H](xi_i, 0; x) [H' F'](0, xi_j; x).  f and fp are callables
    (y, z) -> matrix (or scalar); h and hp are Hankel profiles.  Returns
    (lhs blocks, rhs blocks, max discrepancy).  The x step is the
    quadrature spacing, which keeps x +- dx on master nodes.
    """
    dx = quad.spacing
    w = quad.weights
    F = _kernel_from_callable(f, quad)
    Fp = _kernel_from_callable(fp, quad)
    # the composed kernel (H H')(xi_i, xi_j; x) is assemble_Q with h on the left
    D = DiscreteKernel(quad, (assemble_Q(hp, h, x + dx, quad).blocks
                              - assemble_Q(hp, h, x - dx, quad).blocks) / (2.0 * dx))
    lhs = compose(compose(F, D), Fp).blocks

    N = quad.intervals
    h_at = hankel_values(h, x, quad)[N:]
    hp_at = hankel_values(hp, x, quad)[N:]
    u = np.einsum("k,ikab,kbc->iac", w, F.blocks, h_at)
    v = np.einsum("k,kab,kjbc->jac", w, hp_at, Fp.blocks)
    rhs = np.einsum("iab,jbc->ijac", u, v)

    err = float(np.abs(lhs - rhs).max())
    return lhs, rhs, err


@dataclass(frozen=True)
class UIdentityReport:
    identity_ii_error: float
    identity_i_error: float


def u_identity_check(q_kernels, dx):
    """Certify the resolvent identities on q_kernels, discretized kernels
    at three or more consecutive x values dx apart.  Identity (ii),
    id - U = U(WQ) = (WQ)U with U = (id + WQ)^{-1}, is algebraic and
    checked on every member; identity (i), dU/dx = -U (dWQ/dx) U, by
    centered differences at the interior members.
    """
    Us = []
    WQs = []
    err_ii = 0.0
    for Q in q_kernels:
        A = nystrom_matrix(Q)[0]
        U = np.linalg.inv(A)
        I = np.eye(U.shape[0], dtype=A.dtype)
        WQ = A - I
        err_ii = max(err_ii,
                     float(np.abs(I - U - U @ WQ).max()),
                     float(np.abs(I - U - WQ @ U).max()))
        Us.append(U)
        WQs.append(WQ)
    err_i = 0.0
    for j in range(1, len(Us) - 1):
        dU = (Us[j + 1] - Us[j - 1]) / (2.0 * dx)
        dWQ = (WQs[j + 1] - WQs[j - 1]) / (2.0 * dx)
        err_i = max(err_i, float(np.abs(dU + Us[j] @ dWQ @ Us[j]).max()))
    return UIdentityReport(identity_ii_error=err_ii, identity_i_error=err_i)
