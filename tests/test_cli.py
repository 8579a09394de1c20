import copy
import importlib.util
import json
import os
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from hankelpde import cli, fredholm
from hankelpde.cli import (
    Scenario,
    convergence_study,
    main,
    parse_scenario,
    run,
    verify,
)
from hankelpde.fredholm import make_quadrature

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

RANK_ONE_NLS = """
name: rank-one-nls
kind: local_nls
dims: [1, 1]
initial: {kind: exponential, amplitude: 1.0, rate: 1.0}
grid: {X: 24.0, M: 1536}
quadrature: {L: 8.0, N: 128}
richardson: true
samples:
  x: {start: -1.0, stop: 1.0, count: 5}
  t: {start: -0.5, stop: 0.5, count: 5}
outputs: [center, det2]
"""

STUDY_NLS = """
name: rank-one-nls-study
kind: local_nls
dims: [1, 1]
initial: {kind: exponential, amplitude: 1.0, rate: 1.0}
grid: {X: 24.0, M: 1536}
quadrature: {L: 8.0, N: 64}
samples:
  x: {start: -1.0, stop: 1.0, count: 5}
  t: {start: -0.5, stop: 0.5, count: 5}
outputs: [center, det2]
"""

KDV_RANK_ONE = """
name: rank-one-kdv
kind: kdv_primitive
dims: [1, 1]
initial: {kind: exponential, amplitude: -1.0, rate: 1.0}
grid: {X: 24.0, M: 1536}
quadrature: {L: 8.0, N: 128}
richardson: true
samples:
  x: [0.0]
  t: [0.0]
outputs: [center, det2]
"""

GAUSS_NLS_SMALL = """
name: gauss-nls
kind: local_nls
dims: [1, 1]
initial: {kind: gaussian, amplitude: 0.75, width: 1.0}
grid: {X: 20.0, M: 640}
quadrature: {L: 8.0, N: 32}
samples:
  x: {start: -0.5, stop: 0.5, count: 5}
  t: {start: -0.2, stop: 0.2, count: 5}
"""


def kdv_positive_text():
    # place one t sample exactly on the det2 zero of the discrete pole:
    # theta(0,t) S = 1 at t = ln S with S the discrete tail sum
    quad = make_quadrature(12.0, 192, 0.03125)
    S = float(np.sum(quad.weights * np.exp(2.0 * quad.nodes)))
    t_star = np.log(S)
    return """
name: kdv-positive-pole
kind: kdv_primitive
dims: [1, 1]
initial: {kind: exponential, amplitude: 1.0, rate: 1.0}
grid: {X: 28.0, M: 1792}
quadrature: {L: 12.0, N: 192}
samples:
  x: [-0.25, 0.0, 0.25]
  t: [-1.0, %.17g, -0.25, 0.0]
outputs: [center, det2]
""" % t_star


def write_scenario(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_scenario_accepts_and_pins(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, RANK_ONE_NLS))
    assert isinstance(sc, Scenario)
    assert sc.kind.name == "local_nls"
    assert sc.params.mu1 == -1j and sc.params.mu2 == 0.0
    assert sc.companion == "adjoint"
    assert sc.quad.intervals == 128
    assert sc.xs.size == 5 and sc.ts.size == 5
    assert sc.tolerances["patch_threshold"] == 1e-8


def test_parse_scenario_rejects_wrong_mu(tmp_path):
    bad = GAUSS_NLS_SMALL.replace("kind: local_nls", "kind: local_mkdv\nmu2: 1.0")
    with pytest.raises(ValueError):
        parse_scenario(write_scenario(tmp_path, bad))


def test_parse_scenario_rejects_unknown_kind(tmp_path):
    bad = GAUSS_NLS_SMALL.replace("kind: local_nls", "kind: quintic_nls")
    with pytest.raises(ValueError):
        parse_scenario(write_scenario(tmp_path, bad))


def test_parse_scenario_missing_initial(tmp_path):
    lines = [ln for ln in GAUSS_NLS_SMALL.splitlines()
             if not ln.startswith("initial:")]
    with pytest.raises(ValueError) as err:
        parse_scenario(write_scenario(tmp_path, "\n".join(lines)))
    assert "initial" in str(err.value)


def test_parse_scenario_incommensurate_quadrature(tmp_path):
    bad = GAUSS_NLS_SMALL.replace("quadrature: {L: 8.0, N: 32}",
                                  "quadrature: {L: 8.0, N: 33}")
    with pytest.raises(ValueError):
        parse_scenario(write_scenario(tmp_path, bad))


def test_parse_scenario_rejects_exponential_space_reversal(tmp_path):
    # the reflected companion of exponential data grows on the window
    text = GAUSS_NLS_SMALL.replace("kind: local_nls", "kind: rev_spacetime_nls")
    sc = parse_scenario(write_scenario(tmp_path, text))
    assert sc.kind.name == "rev_spacetime_nls"
    bad = text.replace("initial: {kind: gaussian, amplitude: 0.75, width: 1.0}",
                       "initial: {kind: exponential_step, amplitude: 0.75, rate: 1.0}")
    assert bad != text
    with pytest.raises(ValueError):
        parse_scenario(write_scenario(tmp_path, bad))


def test_parse_scenario_residuals_need_symmetric_grid(tmp_path):
    text = GAUSS_NLS_SMALL.replace("kind: local_nls", "kind: rev_time_nls")
    text = text.replace("t: {start: -0.2, stop: 0.2, count: 5}",
                        "t: {start: 0.0, stop: 0.4, count: 5}")
    with pytest.raises(ValueError):
        parse_scenario(write_scenario(tmp_path, text))


def test_parse_scenario_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HANKELPDE_PATCH_THRESHOLD", "1e-5")
    sc = parse_scenario(write_scenario(tmp_path, GAUSS_NLS_SMALL))
    assert sc.tolerances["patch_threshold"] == 1e-5


def test_parse_scenario_decay_warning(tmp_path):
    wide = GAUSS_NLS_SMALL.replace("width: 1.0", "width: 12.0")
    with pytest.warns(UserWarning):
        parse_scenario(write_scenario(tmp_path, wide))


def test_run_rank_one_nls_center_value(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, RANK_ONE_NLS))
    out = tmp_path / "out"
    code = run(sc, out_dir=str(out))
    assert code == 0
    rows = np.loadtxt(out / "center.tsv", skiprows=1)
    match = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)]
    assert match.shape[0] == 1
    assert abs(match[0, 2] - 0.8) < 1e-6
    assert abs(match[0, 3]) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert manifest["version"]
    assert manifest["outputs"] == ["center.tsv", "det2.tsv"]


def test_run_rank_one_kdv_center_value(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, KDV_RANK_ONE))
    out = tmp_path / "out"
    assert run(sc, out_dir=str(out)) == 0
    rows = np.loadtxt(out / "center.tsv", skiprows=1, ndmin=2)
    assert abs(rows[0, 2] - (-2.0 / 3.0)) < 1e-5


def test_run_zero_data(tmp_path):
    text = GAUSS_NLS_SMALL.replace("amplitude: 0.75", "amplitude: 0.0")
    sc = parse_scenario(write_scenario(tmp_path, text))
    out = tmp_path / "out"
    assert run(sc, out_dir=str(out)) == 0
    rows = np.loadtxt(out / "center.tsv", skiprows=1)
    assert np.all(rows[:, 2:] == 0.0)
    det_rows = np.loadtxt(out / "det2.tsv", skiprows=1)
    assert np.all(det_rows[:, 2] == 1.0)
    assert np.all(det_rows[:, 3] == 0.0)
    res_rows = (out / "residuals.tsv").read_text().splitlines()
    assert res_rows[0] == "equation\tmax\tl2"
    assert float(res_rows[1].split("\t")[1]) == 0.0


def test_run_patch_skip_exit_code(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, kdv_positive_text()))
    out = tmp_path / "out"
    code = run(sc, out_dir=str(out))
    assert code == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert len(manifest["skipped"]) >= 1
    skipped_t = [row[2] for row in manifest["skipped"]]
    # theta = e^{x-t} crosses the pole near t = -ln 2 at x = 0
    assert any(abs(t - (-np.log(2.0))) < 0.05 for t in skipped_t)
    # the other samples still produced finite output
    rows = np.loadtxt(out / "center.tsv", skiprows=1)
    finite = np.isfinite(rows[:, 2])
    assert finite.sum() >= rows.shape[0] - 3


def test_run_thread_determinism(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, GAUSS_NLS_SMALL))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run(sc, out_dir=str(out1), threads=1)
    run(sc, out_dir=str(out2), threads=3)
    for name in ("center.tsv", "det2.tsv", "residuals.tsv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_run_slices_output(tmp_path):
    text = GAUSS_NLS_SMALL.replace(
        "samples:", "outputs: [center, slices, det2]\nsamples:")
    sc = parse_scenario(write_scenario(tmp_path, text))
    out = tmp_path / "out"
    assert run(sc, out_dir=str(out)) == 0
    rows = np.loadtxt(out / "slice_y.tsv", skiprows=1)
    assert rows.shape[0] == 5 * 5 * sc.quad.node_count
    # xi = 0 row of the y slice equals the centre value
    center = np.loadtxt(out / "center.tsv", skiprows=1)
    at_origin = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)
                     & (rows[:, 2] == 0.0)]
    c = center[(center[:, 0] == 0.0) & (center[:, 1] == 0.0)]
    assert at_origin[0, 3] == c[0, 2]


def test_convergence_study_closed_form(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, STUDY_NLS))
    report = convergence_study(sc, levels=3)
    assert report.reference == "closed-form"
    assert 1.7 < report.fitted_order < 2.3
    assert len(report.levels) == 3 and len(report.ratios) == 2


def test_convergence_study_residual_reference(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, GAUSS_NLS_SMALL))
    report = convergence_study(sc, levels=3)
    assert report.reference == "residual"
    assert 1.6 < report.fitted_order < 2.4


def test_convergence_study_levels_guard(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, GAUSS_NLS_SMALL))
    with pytest.raises(ValueError):
        convergence_study(sc, levels=2)
    with pytest.raises(ValueError):
        convergence_study(sc, levels=9)  # resource guard


def test_verify_passes_on_clean_scenario(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, GAUSS_NLS_SMALL))
    assert verify(sc) == 0


def test_main_solve_and_exit_codes(tmp_path, capsys):
    path = write_scenario(tmp_path, kdv_positive_text())
    out = tmp_path / "cli-out"
    code = main(["solve", path, "--out", str(out)])
    assert code == 2
    assert (out / "manifest.json").exists()
    code = main(["solve", str(tmp_path / "missing.yaml")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("text", [
    "kind: [local_nls\n",
    GAUSS_NLS_SMALL.replace("dims: [1, 1]", "dims: 5"),
    GAUSS_NLS_SMALL.replace("grid: {X: 20.0, M: 640}", "grid: {M: 640}"),
    GAUSS_NLS_SMALL.replace(", width: 1.0", ""),
], ids=["unparseable_yaml", "scalar_dims", "grid_without_X", "gaussian_without_width"])
def test_main_solve_malformed_scenario_is_one_line_error(tmp_path, capsys, text):
    path = write_scenario(tmp_path, text)
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_main_study_prints_report(tmp_path, capsys):
    path = write_scenario(tmp_path, STUDY_NLS)
    assert main(["study", path, "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "fitted order" in out
    assert "closed-form" in out


def test_main_verify(tmp_path):
    path = write_scenario(tmp_path, GAUSS_NLS_SMALL)
    assert main(["verify", path]) == 0


def _key_paths(node, prefix=()):
    """Every key path of a loaded YAML document, list indices included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


_DELETE = object()


def test_parse_scenario_fuzzed_shipped_scenarios(tmp_path):
    # every key path of every shipped scenario set to None, a string or a
    # list, or deleted: parsing gives a Scenario or a one-line ValueError
    target = tmp_path / "fuzzed.yaml"
    escaped = []
    cases = 0
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        raw = yaml.safe_load(path.read_text())
        for keys in _key_paths(raw):
            for value in (None, "abc", [1, "abc"], _DELETE):
                doc = copy.deepcopy(raw)
                parent = doc
                for key in keys[:-1]:
                    parent = parent[key]
                if value is _DELETE:
                    del parent[keys[-1]]
                else:
                    parent[keys[-1]] = value
                target.write_text(yaml.safe_dump(doc))
                cases += 1
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        assert isinstance(parse_scenario(str(target)), Scenario)
                except ValueError as err:
                    if "\n" in str(err):
                        escaped.append((path.name, keys, value, str(err)))
                except Exception as err:  # any other exception is the failure
                    escaped.append((path.name, keys, value, repr(err)))
    assert cases > 500
    assert escaped == []


def test_run_manifest_records_backward_error(tmp_path):
    sc = parse_scenario(str(SCENARIO_DIR / "nls_gaussian_2x2.yaml"))
    out = tmp_path / "out"
    assert run(sc, out_dir=str(out), threads=2) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 < manifest["max_backward_error"] <= sc.tolerances["solver_tol"]


def test_parse_scenario_names_bad_env_override_and_tabulated_values(tmp_path, monkeypatch):
    tabulated = GAUSS_NLS_SMALL.replace(
        "initial: {kind: gaussian, amplitude: 0.75, width: 1.0}",
        "initial: {kind: tabulated, values: [null, abc]}")
    with pytest.raises(ValueError, match="initial.values"):
        parse_scenario(write_scenario(tmp_path, tabulated))
    monkeypatch.setenv("HANKELPDE_PATCH_THRESHOLD", "abc")
    with pytest.raises(ValueError, match="HANKELPDE_PATCH_THRESHOLD"):
        parse_scenario(write_scenario(tmp_path, GAUSS_NLS_SMALL))


def test_verify_builds_each_system_once(monkeypatch):
    # Q at x0 is the middle member of the identity family, the companion
    # is built once, and solve_G factors the I + WQ its det2 came from
    calls = {"assemble_Q": 0, "companion_profile": 0, "nystrom_matrix": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "assemble_Q")
    counted(cli, "companion_profile")
    counted(fredholm, "nystrom_matrix")
    assert main(["verify", str(SCENARIO_DIR / "nls_rank_one_study.yaml")]) == 0
    assert calls == {"assemble_Q": 5, "companion_profile": 1, "nystrom_matrix": 2}


def test_main_verify_kdv_soliton():
    # exp-tagged real data: the identity suite, solve_G and the residual
    # all run in real arithmetic
    assert main(["verify", str(SCENARIO_DIR / "kdv_soliton.yaml")]) == 0


def test_traced_attributes_exist():
    # the traced benchmark wraps these attributes by name; a renamed one
    # would only show up there as calls = 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "fredholm": fredholm}
    for module, attribute, _ in spans.WRAPPED:
        assert module in modules, module
        assert callable(getattr(modules[module], attribute, None)), (module, attribute)


def test_main_solve_refuses_nearly_symmetric_grid_before_solving(tmp_path, capsys):
    # t stop 0.8000001 is inside numpy's default rtol but not on-grid
    # symmetric; the parse-time check must be the residual step's check
    text = (SCENARIO_DIR / "rev_time_nls.yaml").read_text().replace(
        "t: {start: -0.8, stop: 0.8, count: 9}",
        "t: {start: -0.8, stop: 0.8000001, count: 10}")
    out = tmp_path / "out"
    assert main(["solve", write_scenario(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (out / "center.tsv").exists()


def _loop_tables(sc):
    # the per-entry loop writers, kept as the byte-level reference
    field_out, report = fredholm.evaluate_solution(sc)

    def fmt(vals):
        return "\t".join("%.17g" % v for v in vals) + "\n"

    def pairs(arr):
        return [part for e in arr.ravel() for part in (e.real, e.imag)]

    def heads(prefix, n, m):
        return ["%s_%s%d%d" % (ri, prefix, i, j)
                for i in range(n) for j in range(m) for ri in ("re", "im")]

    samples = [(it, ix, x, t) for it, t in enumerate(field_out.ts)
               for ix, x in enumerate(field_out.xs)]
    tables = {"center.tsv": "\t".join(["x", "t"] + heads("g", sc.n, sc.m)
                                      + heads("gt", sc.m, sc.n)) + "\n",
              "det2.tsv": "x\tt\tre_det2\tim_det2\tabs_det2\n"}
    for it, ix, x, t in samples:
        tables["center.tsv"] += fmt([x, t] + pairs(field_out.center[it, ix])
                                    + pairs(field_out.center_tilde[it, ix]))
        d = report.det2[it, ix]
        tables["det2.tsv"] += fmt([x, t, d.real, d.imag, abs(d)])
    for which, data in (("y", field_out.slice_y), ("z", field_out.slice_z)):
        text = "\t".join(["x", "t", "xi"] + heads("g", sc.n, sc.m)) + "\n"
        for it, ix, x, t in samples:
            for k, xi in enumerate(field_out.quad.nodes):
                text += fmt([x, t, xi] + pairs(data[it, ix, k]))
        tables["slice_%s.tsv" % which] = text
    return tables


def test_run_tables_match_loop_writer(tmp_path):
    text = (SCENARIO_DIR / "coupled_diffusion.yaml").read_text().replace(
        "outputs: [center, residuals]", "outputs: [center, slices, det2]")
    sc = parse_scenario(write_scenario(tmp_path, text))
    out = tmp_path / "out"
    assert run(sc, out_dir=str(out)) == 0
    for name, expected in _loop_tables(sc).items():
        assert (out / name).read_text() == expected, name


RANK_ONE_ASYMMETRIC_T = """
name: rank-one-reference
%s
dims: [1, 1]
initial: {kind: exponential, amplitude: 0.35+0.15i, rate: 0.8}
grid: {X: 24.0, M: 1536}
quadrature: {L: 8.0, N: 64}
samples:
  x: {start: -1.0, stop: 1.0, count: 5}
  t: [-0.3, 0.1, 0.5, 0.7]
outputs: [center, det2]
"""


@pytest.mark.parametrize("kind_lines, companion, d, partner", [
    ("kind: local_nls", "adjoint", -1j * 0.8 ** 2,
     lambda th, th_rev: np.conj(th)),
    ("kind: local_nls\nsign: -1", "neg_adjoint", -1j * 0.8 ** 2,
     lambda th, th_rev: -np.conj(th)),
    ("kind: local_mkdv", "neg_transpose", -0.8 ** 3,
     lambda th, th_rev: -th),
    ("kind: rev_time_nls", "transpose_rev_time", -1j * 0.8 ** 2,
     lambda th, th_rev: th_rev),
    ("kind: coupled_diffusion", "transpose_rev_time", 0.8 ** 2,
     lambda th, th_rev: th_rev),
    ("kind: kdv_primitive", "neg_identity", -0.8 ** 3, None),
], ids=["adjoint", "neg_adjoint", "neg_transpose", "rev_time_nls",
        "coupled_diffusion", "neg_identity"])
def test_rank_one_reference_is_the_displayed_closed_form(tmp_path, kind_lines,
                                                         companion, d, partner):
    sc = parse_scenario(write_scenario(tmp_path, RANK_ONE_ASYMMETRIC_T % kind_lines))
    assert sc.companion == companion
    A, a = 0.35 + 0.15j, 0.8
    S = 1.0 / (2.0 * a)
    T, X = np.meshgrid(sc.ts, sc.xs, indexing="ij")
    th = A * np.exp(a * X + T * d)
    if partner is None:
        exact = th / (1.0 - th * S)
    else:
        exact = th / (1.0 + th * partner(th, A * np.exp(a * X - T * d)) * S * S)
    ref = cli._rank_one_reference(sc)(sc.xs, sc.ts)
    assert np.max(np.abs(ref - exact) / np.abs(exact)) <= 1e-15


def test_rank_one_reference_only_for_separable_scalar_exponentials(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, RANK_ONE_ASYMMETRIC_T % "kind: local_nls"))
    assert cli._rank_one_reference(sc) is not None
    gauss = cli.InitialDataSpec(kind="gaussian", amplitude=[[1.0]], width=1.0)
    for changed in (dict(companion="transpose_rev_spacetime"),
                    dict(companion="neg_adjoint_rev_spacetime"),
                    dict(initial=gauss),
                    dict(n=2, m=2)):
        assert cli._rank_one_reference(replace(sc, **changed)) is None, changed
