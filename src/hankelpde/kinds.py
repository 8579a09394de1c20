"""Equation family registry.

One table fixes each kind by its (mu1, mu2, companion) triple: pinned
linear-flow parameters (combined_degree3's come from the caller) and a
companion per accepted (sign, flavor).  The structural flags the
residual layer and scenario validation read follow from the triple.
The reverse-time NLS form is inferred by analogy with the displayed
reverse-space-time family (conjugation pattern g(x,t) g^T(x,-t) g(x,t))
rather than taken from a stated equation; treat its residuals with that
caveat in mind.
"""

from dataclasses import dataclass

from .companion import space_reversed, time_reversed
from .dispersion import DispersionParams

_NLS_FLOW = DispersionParams(mu1=-1j, mu2=0.0)
_MKDV_FLOW = DispersionParams(mu1=0.0, mu2=-1.0)

# name -> (pinned parameters, {(sign, flavor): companion})
_KINDS = {
    "local_nls": (_NLS_FLOW, {(1, "real"): "adjoint", (-1, "real"): "neg_adjoint"}),
    "kernel_nls": (_NLS_FLOW, {(1, "real"): "adjoint", (-1, "real"): "neg_adjoint"}),
    "rev_time_nls": (_NLS_FLOW, {(1, "real"): "transpose_rev_time"}),
    "rev_spacetime_nls": (_NLS_FLOW, {(1, "real"): "transpose_rev_spacetime"}),
    "coupled_diffusion": (DispersionParams(mu1=1.0, mu2=0.0),
                          {(1, "real"): "transpose_rev_time"}),
    "local_mkdv": (_MKDV_FLOW, {(1, "real"): "neg_transpose",
                                (1, "complex"): "neg_adjoint"}),
    "kernel_mkdv": (_MKDV_FLOW, {(1, "real"): "neg_transpose"}),
    "rev_spacetime_mkdv": (_MKDV_FLOW, {(1, "real"): "neg_transpose_rev_spacetime",
                                        (1, "complex"): "neg_adjoint_rev_spacetime"}),
    "kdv_primitive": (_MKDV_FLOW, {(1, "real"): "neg_identity"}),
    "combined_degree3": (None, {(1, "real"): "neg_adjoint"}),
}
KIND_NAMES = tuple(_KINDS)


@dataclass(frozen=True)
class ResolvedKind:
    """A fully pinned equation family: its name and (mu1, mu2, companion)."""

    name: str
    params: DispersionParams
    companion: str

    @property
    def needs_square(self):
        """Whether the data must be square (the pairing Q = -P)."""
        return self.companion == "neg_identity"

    @property
    def coupled(self):
        """Whether the kind has a partner field G~, read from the solve at
        -t: G~(x,t) = G(x,-t)^T (evaluate_solution)."""
        return self.name == "coupled_diffusion"

    @property
    def conjugation_reversible(self):
        """Whether conjugation reverses the flow: with mu1 and mu2 purely
        imaginary, conj sigma(z) = -sigma(-z) on the imaginary z of the
        grid modes, so exactly real data have p_{-t} = conj p_t, and every
        companion map commutes with conjugation (evaluate_solution)."""
        return all(complex(mu).real == 0.0 for mu in (self.params.mu1, self.params.mu2))

    @property
    def has_kernel_form(self):
        """Whether the kind has a two-argument kernel equation."""
        return self.name in ("kernel_nls", "kernel_mkdv")

    @property
    def reflect_x(self):
        """Whether the residual reads g at -x (x grid symmetric about 0)."""
        return space_reversed(self.companion)

    @property
    def reflect_t(self):
        """Whether the residual reads g at -t (t grid symmetric about 0).
        The coupled kind's residual reads its partner from center_tilde,
        which evaluate_solution fills on any t grid, solving the -t the
        grid lacks."""
        return time_reversed(self.companion) and not self.coupled


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
    pinned, companions = _KINDS[name]
    if sign == -1 and (-1, "real") not in companions:
        raise ValueError("kind %r does not take a sign" % (name,))
    if flavor == "complex" and (1, "complex") not in companions:
        raise ValueError("kind %r does not take a flavor" % (name,))
    companion = companions[(sign, flavor)]

    if pinned is None:
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
        return ResolvedKind(name, DispersionParams(mu1=mu1, mu2=mu2.real), companion)

    for label, given, pin in (("mu1", mu1, pinned.mu1), ("mu2", mu2, pinned.mu2)):
        if given is not None and abs(complex(given) - complex(pin)) > 1e-12:
            raise ValueError("kind %r pins %s = %r, scenario gave %r"
                             % (name, label, pin, given))
    return ResolvedKind(name, pinned, companion)
