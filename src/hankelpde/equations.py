"""Residuals of the nonlinear equations and the structural identities.

Everything here is certification machinery: none of it feeds back into
the solver.  Residuals use centered second-order stencils (5-point for
the third x-derivative) with a two-layer boundary exclusion; nonlocal
kinds require (x,t) grids symmetric about 0 in each reversed coordinate
so reflected samples exist on-grid.  Patch-skipped samples (NaN) simply
drop out of the reported maxima.
"""

from dataclasses import dataclass
import numpy as np

from .companion import companion_profile
from .dispersion import DispersionParams, evolve
from .fredholm import assemble_Q, hankel_values, nystrom_matrix, quadrature_rules, solve_origin
from .kinds import resolve_kind

_KDV_FLOW = DispersionParams(mu1=0.0, mu2=-1.0)


def _tr(F):
    return np.swapaxes(F, -1, -2)


def _adj(F):
    return np.conj(np.swapaxes(F, -1, -2))


def _uniform_step(vals, label, minimum=5):
    vals = np.asarray(vals, dtype=float)
    if vals.size < minimum:
        raise ValueError("%s grid needs at least %d samples for the stencils, got %d"
                         % (label, minimum, vals.size))
    steps = np.diff(vals)
    if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("%s grid must be uniformly increasing" % label)
    return float(steps[0])


def _require_symmetric(vals, label):
    vals = np.asarray(vals, dtype=float)
    scale = max(1.0, float(np.abs(vals).max()))
    if not np.allclose(vals, -vals[::-1], rtol=0.0, atol=1e-9 * scale):
        raise ValueError("%s grid must be symmetric about 0 for this kind "
                         "(reflected samples must exist on-grid)" % label)


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


def _nanmax_abs(R):
    vals = np.abs(R)
    if np.all(np.isnan(vals)):
        return float("nan")
    return float(np.nanmax(vals))


def residual_local(kind, field, params=None):
    """Pointwise residual of the kind's local PDE at the centre values.

    Returns (residual_field, max_norm); the residual field has the full
    (nt, nx) shape with NaN in the excluded two-layer boundary.  For the
    coupled system use residual_coupled, which needs both fields.
    """
    if isinstance(kind, str):
        kind = resolve_kind(kind)
    if kind.coupled:
        raise ValueError("coupled system residuals need both fields; "
                         "use residual_coupled")
    params = kind.params if params is None else params
    G = np.asarray(field.center)
    dt = _uniform_step(field.ts, "t")
    dx = _uniform_step(field.xs, "x")
    if kind.reflect_t:
        _require_symmetric(field.ts, "t")
    if kind.reflect_x:
        _require_symmetric(field.xs, "x")
    if kind.needs_square and G.shape[-1] != G.shape[-2]:
        raise ValueError("kind %r needs square matrix data" % (kind.name,))

    C = _interior(G)
    Gt = _d_t(G, dt)
    name = kind.name

    if name in ("local_nls", "kernel_nls"):
        cubic = 2.0 * kind.sign * (C @ _adj(C) @ C)
        R = 1j * Gt - _d_xx(G, dx) - cubic
    elif name == "rev_time_nls":
        mid = _tr(_interior(G[::-1, :]))
        R = 1j * Gt - _d_xx(G, dx) - 2.0 * (C @ mid @ C)
    elif name == "rev_spacetime_nls":
        mid = _tr(_interior(G[::-1, ::-1]))
        R = 1j * Gt - _d_xx(G, dx) - 2.0 * (C @ mid @ C)
    elif name in ("local_mkdv", "kernel_mkdv"):
        mid = _adj(C) if kind.flavor == "complex" else _tr(C)
        Gx = _d_x(G, dx)
        R = Gt + _d_xxx(G, dx) - 3.0 * (C @ mid @ Gx) - 3.0 * (Gx @ mid @ C)
    elif name == "rev_spacetime_mkdv":
        rev = _interior(G[::-1, ::-1])
        mid = _adj(rev) if kind.flavor == "complex" else _tr(rev)
        Gx = _d_x(G, dx)
        R = Gt + _d_xxx(G, dx) - 3.0 * (C @ mid @ Gx) - 3.0 * (Gx @ mid @ C)
    elif name == "kdv_primitive":
        Gx = _d_x(G, dx)
        R = Gt + _d_xxx(G, dx) - 3.0 * (Gx @ Gx)
    elif name == "combined_degree3":
        mu1, mu2 = params.mu1, params.mu2
        Gx = _d_x(G, dx)
        A = _adj(C)
        R = (Gt - mu1 * _d_xx(G, dx) - mu2 * _d_xxx(G, dx)
             + 2.0 * mu1 * (C @ A @ C)
             + 3.0 * mu2 * (C @ A @ Gx)
             + 3.0 * mu2 * (Gx @ A @ C))
    else:
        raise ValueError("no local residual for kind %r" % (name,))

    out = np.full(G.shape, np.nan, dtype=complex)
    out[2:-2, 2:-2] = R
    return out, _nanmax_abs(R)


def residual_kernel(kind, field, params=None, return_fields=False):
    """Residual of the kernel (two-argument) equation on the slices.

    Evaluates the equation at all (y, 0) and (0, z) pairs over the
    quadrature nodes, with x and t derivatives taken along the sample
    grid.  Only the kernel NLS and kernel mKdV families have displayed
    kernel equations.
    """
    if isinstance(kind, str):
        kind = resolve_kind(kind)
    if not kind.has_kernel_form:
        raise ValueError("kind %r has no kernel-equation form" % (kind.name,))
    if field.slice_y is None or field.slice_z is None:
        raise ValueError("kernel residual needs the g(y,0) and g(0,z) slices")
    Sy = np.asarray(field.slice_y)
    Sz = np.asarray(field.slice_z)
    G = np.asarray(field.center)
    dt = _uniform_step(field.ts, "t")
    dx = _uniform_step(field.xs, "x")

    C = _interior(G)[..., None, :, :]
    if kind.name == "kernel_nls":
        s = 2.0 * kind.sign
        B = _adj(C) @ C
        A = C @ _adj(C)
        R1 = 1j * _d_t(Sy, dt) - _d_xx(Sy, dx) - s * (_interior(Sy) @ B)
        R2 = 1j * _d_t(Sz, dt) - _d_xx(Sz, dx) - s * (A @ _interior(Sz))
    else:  # kernel_mkdv
        Ct = _tr(C)
        Cx = _d_x(G, dx)[..., None, :, :]
        R1 = (_d_t(Sy, dt) + _d_xxx(Sy, dx)
              - 3.0 * (_interior(Sy) @ Ct @ Cx)
              - 3.0 * (_d_x(Sy, dx) @ Ct @ C))
        R2 = (_d_t(Sz, dt) + _d_xxx(Sz, dx)
              - 3.0 * (C @ Ct @ _d_x(Sz, dx))
              - 3.0 * (Cx @ Ct @ _interior(Sz)))
    worst = max(_nanmax_abs(R1), _nanmax_abs(R2))
    if return_fields:
        return worst, (R1, R2)
    return worst


def residual_coupled(field, params=None, field_tilde=None, return_fields=False):
    """Residuals of the coupled diffusion pair.

    G comes from field.center; the partner comes from field_tilde.center
    when a second field is passed, else from field.center_tilde.  The
    pair satisfies dG/dt = G_xx + 2 G G~ G and dG~/dt = -G~_xx - 2 G~ G G~.
    """
    G = np.asarray(field.center)
    if field_tilde is not None:
        Gt_arr = np.asarray(field_tilde.center)
    else:
        if field.center_tilde is None:
            raise ValueError("coupled residual needs the partner field")
        Gt_arr = np.asarray(field.center_tilde)
    dt = _uniform_step(field.ts, "t")
    dx = _uniform_step(field.xs, "x")
    C = _interior(G)
    Cc = _interior(Gt_arr)
    R1 = _d_t(G, dt) - _d_xx(G, dx) - 2.0 * (C @ Cc @ C)
    R2 = _d_t(Gt_arr, dt) + _d_xx(Gt_arr, dx) + 2.0 * (Cc @ C @ Cc)
    worst = max(_nanmax_abs(R1), _nanmax_abs(R2))
    if return_fields:
        return worst, (R1, R2)
    return worst


def miura_check(p0, quad, xs, ts, richardson=False):
    """Max defect of the KdV/mKdV coupling identity.

    From the same symmetric square profile, evolved under the
    third-order flow, solve the mKdV system (companion -p^T, so the
    composed kernel is -P.P) and the primitive KdV system (Q = -P), and
    measure d<G_kdv>/dx - d<G_mkdv>/dx - <G_mkdv>^2 with centered x
    differences.  Second-order accurate in the x step and quadrature.
    """
    sym_err = np.abs(p0.samples - _tr(p0.samples)).max()
    scale = max(np.abs(p0.samples).max(), 1.0)
    if sym_err > 1e-12 * scale:
        raise ValueError("miura_check needs matrix-symmetric data "
                         "(defect %g)" % sym_err)
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    dx = _uniform_step(xs, "x", minimum=3)
    rules = quadrature_rules(quad, richardson, p0.grid.spacing)

    worst = 0.0
    for t in ts:
        p_t = evolve(p0, _KDV_FLOW, t)
        ptil = companion_profile(p_t, "neg_transpose")
        gm = np.empty((xs.size,) + (p0.rows, p0.cols), dtype=complex)
        gk = np.empty_like(gm)
        for ix, x in enumerate(xs):
            gm[ix] = solve_origin(p_t, ptil, x, rules)[1]
            gk[ix] = solve_origin(p_t, None, x, rules)[1]
        dgk = (gk[2:] - gk[:-2]) / (2.0 * dx)
        dgm = (gm[2:] - gm[:-2]) / (2.0 * dx)
        defect = dgk - dgm - gm[1:-1] @ gm[1:-1]
        worst = max(worst, float(np.abs(defect).max()))
    return worst


def _kernel_blocks_from_callable(f, nodes):
    probe = np.asarray(f(nodes[0], nodes[0]), dtype=complex)
    if probe.ndim == 0:
        probe = probe.reshape(1, 1)
    a, b = probe.shape
    K = nodes.size
    out = np.empty((K, K, a, b), dtype=complex)
    for i, y in enumerate(nodes):
        for j, z in enumerate(nodes):
            val = np.asarray(f(y, z), dtype=complex)
            out[i, j] = val.reshape(a, b)
    return out


def product_rule_check(f, h, hp, fp, x, quad, dx=None):
    """Both sides of the Hankel product rule, evaluated by quadrature.

    lhs[i,j] = [F d/dx(H H') F'](xi_i, xi_j; x) with the x-derivative of
    the composed kernel taken by centered differences, rhs[i,j] =
    [F H](xi_i, 0; x) [H' F'](0, xi_j; x).  f and fp are callables
    (y, z) -> matrix (or scalar); h and hp are Hankel profiles.  Returns
    (lhs blocks, rhs blocks, max discrepancy).
    """
    if dx is None:
        dx = quad.spacing
    nodes = quad.nodes
    w = quad.weights
    F = _kernel_blocks_from_callable(f, nodes)
    Fp = _kernel_blocks_from_callable(fp, nodes)
    K = quad.node_count
    a = F.shape[2]
    b = Fp.shape[3]

    # the composed kernel (H H')(xi_i, xi_j; x) is assemble_Q with h on the left
    Dc = (assemble_Q(hp, h, x + dx, quad).blocks
          - assemble_Q(hp, h, x - dx, quad).blocks) / (2.0 * dx)

    F_big = F.transpose(0, 2, 1, 3).reshape(K * a, K * h.rows)
    D_big = Dc.transpose(0, 2, 1, 3).reshape(K * h.rows, K * hp.cols)
    Fp_big = Fp.transpose(0, 2, 1, 3).reshape(K * hp.cols, K * b)
    w_h = np.repeat(w, h.rows)
    w_m = np.repeat(w, hp.cols)
    lhs_big = F_big @ (w_h[:, None] * D_big) @ (w_m[:, None] * Fp_big)
    lhs = lhs_big.reshape(K, a, K, b).transpose(0, 2, 1, 3)

    N = quad.intervals
    h_at = hankel_values(h, x, quad)[N:]
    hp_at = hankel_values(hp, x, quad)[N:]
    u = np.einsum("k,ikab,kbc->iac", w, F, h_at)
    v = np.einsum("k,kab,kjbc->jac", w, hp_at, Fp)
    rhs = np.einsum("iab,jbc->ijac", u, v)

    err = float(np.abs(lhs - rhs).max())
    return lhs, rhs, err


@dataclass(frozen=True)
class UIdentityReport:
    identity_ii_error: float
    identity_i_error: float = None


def u_identity_check(q_kernels, dx=None):
    """Certify the resolvent identities on discretized kernels.

    Identity (ii), id - U = U(WQ) = (WQ)U with U = (id + WQ)^{-1}, is
    algebraic and checked on every kernel passed.  Identity (i),
    dU/dx = -U (dWQ/dx) U, needs a family: pass a sequence of kernels at
    consecutive uniformly spaced x values together with dx, and it is
    checked by centered differences at the interior members.  A single
    kernel yields identity_i_error = None.
    """
    if hasattr(q_kernels, "blocks"):
        q_kernels = [q_kernels]
    Us = []
    WQs = []
    err_ii = 0.0
    for Q in q_kernels:
        A = nystrom_matrix(Q, Q.quad)[0]
        U = np.linalg.inv(A)
        I = np.eye(U.shape[0], dtype=complex)
        WQ = A - I
        err_ii = max(err_ii,
                     float(np.abs(I - U - U @ WQ).max()),
                     float(np.abs(I - U - WQ @ U).max()))
        Us.append(U)
        WQs.append(WQ)
    err_i = None
    if len(Us) >= 3:
        if dx is None:
            raise ValueError("identity (i) needs the x spacing of the kernel family")
        err_i = 0.0
        for j in range(1, len(Us) - 1):
            dU = (Us[j + 1] - Us[j - 1]) / (2.0 * dx)
            dWQ = (WQs[j + 1] - WQs[j - 1]) / (2.0 * dx)
            err_i = max(err_i, float(np.abs(dU + Us[j] @ dWQ @ Us[j]).max()))
    return UIdentityReport(identity_ii_error=err_ii, identity_i_error=err_i)
