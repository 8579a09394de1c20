import pytest

from hankelpde.kinds import KIND_NAMES, resolve_kind


def test_pinned_parameters():
    k = resolve_kind("local_nls")
    assert k.params.mu1 == -1j and k.params.mu2 == 0.0
    assert k.companion == "adjoint"
    k = resolve_kind("local_nls", sign=-1)
    assert k.companion == "neg_adjoint"
    k = resolve_kind("local_mkdv")
    assert k.params.mu2 == -1.0 and k.companion == "neg_transpose"
    k = resolve_kind("local_mkdv", flavor="complex")
    assert k.companion == "neg_adjoint"
    k = resolve_kind("kernel_mkdv")
    assert k.companion == "neg_transpose" and k.has_kernel_form
    k = resolve_kind("kdv_primitive")
    assert k.companion == "neg_identity" and k.needs_square
    k = resolve_kind("coupled_diffusion")
    assert k.params.mu1 == 1.0 and k.coupled
    assert k.companion == "transpose_rev_time"


def test_reversal_flags():
    assert resolve_kind("rev_time_nls").reflect_t
    assert not resolve_kind("rev_time_nls").reflect_x
    k = resolve_kind("rev_spacetime_mkdv")
    assert k.reflect_x and k.reflect_t
    assert k.companion == "neg_transpose_rev_spacetime"
    assert resolve_kind("rev_spacetime_mkdv", flavor="complex").companion \
        == "neg_adjoint_rev_spacetime"


def test_sign_and_flavor_validation():
    with pytest.raises(ValueError):
        resolve_kind("rev_time_nls", sign=-1)
    with pytest.raises(ValueError):
        resolve_kind("local_nls", flavor="complex")
    with pytest.raises(ValueError):
        resolve_kind("local_nls", sign=2)
    with pytest.raises(ValueError):
        resolve_kind("no_such_kind")


def test_combined_needs_explicit_parameters():
    with pytest.raises(ValueError):
        resolve_kind("combined_degree3")
    with pytest.raises(ValueError):
        resolve_kind("combined_degree3", mu1=1.0, mu2=-1.0)  # mu1 not imaginary
    with pytest.raises(ValueError):
        resolve_kind("combined_degree3", mu1=-1j, mu2=1j)  # mu2 not real
    k = resolve_kind("combined_degree3", mu1=-2j, mu2=0.5)
    assert k.params.mu1 == -2j and k.params.mu2 == 0.5
    assert k.companion == "neg_adjoint"


def test_parameter_override_guard():
    with pytest.raises(ValueError):
        resolve_kind("local_mkdv", mu2=1.0)
    k = resolve_kind("local_mkdv", mu2=-1.0)
    assert k.params.mu2 == -1.0
    with pytest.raises(ValueError):
        resolve_kind("local_nls", mu1=1j)


def test_every_name_resolves():
    for name in KIND_NAMES:
        if name == "combined_degree3":
            resolve_kind(name, mu1=-1j, mu2=-1.0)
        else:
            resolve_kind(name)


# every accepted (name, sign, flavor), written out by hand:
# mu1, mu2, companion, needs_square, coupled, has_kernel_form, reflect_x, reflect_t
KIND_TABLE = {
    ("local_nls", 1, "real"): (-1j, 0.0, "adjoint", False, False, False, False, False),
    ("local_nls", -1, "real"): (-1j, 0.0, "neg_adjoint", False, False, False, False, False),
    ("kernel_nls", 1, "real"): (-1j, 0.0, "adjoint", False, False, True, False, False),
    ("kernel_nls", -1, "real"): (-1j, 0.0, "neg_adjoint", False, False, True, False, False),
    ("rev_time_nls", 1, "real"): (-1j, 0.0, "transpose_rev_time",
                                  False, False, False, False, True),
    ("rev_spacetime_nls", 1, "real"): (-1j, 0.0, "transpose_rev_spacetime",
                                       False, False, False, True, True),
    ("coupled_diffusion", 1, "real"): (1.0, 0.0, "transpose_rev_time",
                                       False, True, False, False, False),
    ("local_mkdv", 1, "real"): (0.0, -1.0, "neg_transpose", False, False, False, False, False),
    ("local_mkdv", 1, "complex"): (0.0, -1.0, "neg_adjoint", False, False, False, False, False),
    ("kernel_mkdv", 1, "real"): (0.0, -1.0, "neg_transpose", False, False, True, False, False),
    ("rev_spacetime_mkdv", 1, "real"): (0.0, -1.0, "neg_transpose_rev_spacetime",
                                        False, False, False, True, True),
    ("rev_spacetime_mkdv", 1, "complex"): (0.0, -1.0, "neg_adjoint_rev_spacetime",
                                           False, False, False, True, True),
    ("kdv_primitive", 1, "real"): (0.0, -1.0, "neg_identity", True, False, False, False, False),
    ("combined_degree3", 1, "real"): (-2j, 0.5, "neg_adjoint", False, False, False, False, False),
}


def _resolve(name, sign, flavor):
    mu = {"mu1": -2j, "mu2": 0.5} if name == "combined_degree3" else {}
    return resolve_kind(name, sign=sign, flavor=flavor, **mu)


def test_kind_table_is_pinned():
    assert len(KIND_TABLE) == 14
    for (name, sign, flavor), expected in KIND_TABLE.items():
        k = _resolve(name, sign, flavor)
        got = (k.params.mu1, k.params.mu2, k.companion, k.needs_square, k.coupled,
               k.has_kernel_form, k.reflect_x, k.reflect_t)
        assert got == expected, (name, sign, flavor)
    for name in KIND_NAMES:
        for sign in (1, -1, 0, 2):
            for flavor in ("real", "complex", "imaginary"):
                if (name, sign, flavor) not in KIND_TABLE:
                    with pytest.raises(ValueError):
                        _resolve(name, sign, flavor)
    with pytest.raises(ValueError):
        resolve_kind(["local_nls"])


def test_conjugation_reversible_kinds():
    # conjugation reverses the flow exactly when mu1 and mu2 are purely
    # imaginary: the NLS kinds, not the real flows or combined_degree3
    reversible = {name for (name, _, _) in KIND_TABLE
                  if _resolve(name, 1, "real").conjugation_reversible}
    assert reversible == {"local_nls", "kernel_nls", "rev_time_nls", "rev_spacetime_nls"}
    for (name, sign, flavor) in KIND_TABLE:
        assert _resolve(name, sign, flavor).conjugation_reversible == (name in reversible)
