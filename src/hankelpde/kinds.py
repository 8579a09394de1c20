"""Equation family registry.

Each kind pins the linear-flow parameters and the companion map that
make the assembled field solve its nonlinear equation, plus the
structural flags the residual layer and scenario validation need.
The reverse-time NLS form is inferred by analogy with the displayed
reverse-space-time family (conjugation pattern g(x,t) g^T(x,-t) g(x,t))
rather than taken from a stated equation; treat its residuals with that
caveat in mind.
"""

from dataclasses import dataclass

from .companion import space_reversed, time_reversed
from .dispersion import DispersionParams

KIND_NAMES = (
    "local_nls",
    "kernel_nls",
    "rev_time_nls",
    "rev_spacetime_nls",
    "coupled_diffusion",
    "local_mkdv",
    "kernel_mkdv",
    "rev_spacetime_mkdv",
    "kdv_primitive",
    "combined_degree3",
)

_SIGNED = {"local_nls", "kernel_nls"}
_FLAVORED = {"local_mkdv", "rev_spacetime_mkdv"}


@dataclass(frozen=True)
class ResolvedKind:
    """A fully pinned equation family: name plus every derived choice."""

    name: str
    sign: int
    params: DispersionParams
    companion: str
    needs_square: bool = False
    coupled: bool = False
    has_kernel_form: bool = False

    @property
    def reflect_x(self):
        """Whether the residual reads g at -x (x grid symmetric about 0)."""
        return space_reversed(self.companion)

    @property
    def reflect_t(self):
        """Whether the residual reads g at -t; a coupled partner is solved."""
        return time_reversed(self.companion) and not self.coupled


def _close(a, b):
    return abs(complex(a) - complex(b)) <= 1e-12


def resolve_kind(name, sign=1, flavor="real", mu1=None, mu2=None):
    """Pin the (mu1, mu2, companion) triple for an equation kind.

    sign applies to the NLS kinds only (+1 pairs with the adjoint
    companion, -1 with neg_adjoint and flips the nonlinear term's sign).
    flavor ('real' or 'complex') applies to the mKdV kinds and selects
    transpose or conjugate-transpose companions.  mu1/mu2, when given,
    must agree with the kind's pinned values; combined_degree3 is the
    one kind whose parameters are caller-supplied (mu1 imaginary, mu2
    real, both nonzero).
    """
    if name not in KIND_NAMES:
        raise ValueError("unknown equation kind %r" % (name,))
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    if flavor not in ("real", "complex"):
        raise ValueError("flavor must be 'real' or 'complex', got %r" % (flavor,))
    if sign == -1 and name not in _SIGNED:
        raise ValueError("kind %r does not take a sign" % (name,))
    if flavor == "complex" and name not in _FLAVORED:
        raise ValueError("kind %r does not take a flavor" % (name,))

    if name in ("local_nls", "kernel_nls"):
        pinned = DispersionParams(mu1=-1j, mu2=0.0)
        companion = "adjoint" if sign == 1 else "neg_adjoint"
        rk = ResolvedKind(name, sign, pinned, companion,
                          has_kernel_form=(name == "kernel_nls"))
    elif name == "rev_time_nls":
        pinned = DispersionParams(mu1=-1j, mu2=0.0)
        rk = ResolvedKind(name, 1, pinned, "transpose_rev_time")
    elif name == "rev_spacetime_nls":
        pinned = DispersionParams(mu1=-1j, mu2=0.0)
        rk = ResolvedKind(name, 1, pinned, "transpose_rev_spacetime")
    elif name == "coupled_diffusion":
        pinned = DispersionParams(mu1=1.0, mu2=0.0)
        rk = ResolvedKind(name, 1, pinned, "transpose_rev_time", coupled=True)
    elif name in ("local_mkdv", "kernel_mkdv"):
        pinned = DispersionParams(mu1=0.0, mu2=-1.0)
        if name == "kernel_mkdv":
            companion = "neg_transpose"
        else:
            companion = "neg_transpose" if flavor == "real" else "neg_adjoint"
        rk = ResolvedKind(name, 1, pinned, companion,
                          has_kernel_form=(name == "kernel_mkdv"))
    elif name == "rev_spacetime_mkdv":
        pinned = DispersionParams(mu1=0.0, mu2=-1.0)
        companion = ("neg_transpose_rev_spacetime" if flavor == "real"
                     else "neg_adjoint_rev_spacetime")
        rk = ResolvedKind(name, 1, pinned, companion)
    elif name == "kdv_primitive":
        pinned = DispersionParams(mu1=0.0, mu2=-1.0)
        rk = ResolvedKind(name, 1, pinned, "neg_identity", needs_square=True)
    else:  # combined_degree3
        if mu1 is None or mu2 is None:
            raise ValueError("combined_degree3 needs explicit mu1 and mu2")
        mu1 = complex(mu1)
        mu2 = complex(mu2)
        if mu1 == 0 or abs(mu1.real) > 1e-12:
            raise ValueError("combined_degree3 needs purely imaginary nonzero "
                             "mu1, got %r" % (mu1,))
        if mu2 == 0 or abs(mu2.imag) > 1e-12:
            raise ValueError("combined_degree3 needs real nonzero mu2, got %r"
                             % (mu2,))
        return ResolvedKind(name, 1, DispersionParams(mu1=mu1, mu2=mu2.real),
                            "neg_adjoint")

    if mu1 is not None and not _close(mu1, rk.params.mu1):
        raise ValueError("kind %r pins mu1 = %r, scenario gave %r"
                         % (name, rk.params.mu1, mu1))
    if mu2 is not None and not _close(mu2, rk.params.mu2):
        raise ValueError("kind %r pins mu2 = %r, scenario gave %r"
                         % (name, rk.params.mu2, mu2))
    return rk
