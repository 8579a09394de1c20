import copy
import importlib.util
import json
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from hankelpde import cli, fredholm, lapack
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


def kdv_positive_text(N=192):
    # place one t sample exactly on the det2 zero of the discrete pole:
    # theta(0,t) S = 1 at t = ln S with S the discrete tail sum
    quad = make_quadrature(12.0, N, 0.03125)
    S = float(np.sum(quad.weights * np.exp(2.0 * quad.nodes)))
    t_star = np.log(S)
    return """
name: kdv-positive-pole
kind: kdv_primitive
dims: [1, 1]
initial: {kind: exponential, amplitude: 1.0, rate: 1.0}
grid: {X: 28.0, M: 1792}
quadrature: {L: 12.0, N: %d}
samples:
  x: [-0.25, 0.0, 0.25]
  t: [-1.0, %.17g, -0.25, 0.0]
outputs: [center, det2]
""" % (N, t_star)


def write_scenario(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_scenario_accepts_and_pins(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, RANK_ONE_NLS))
    assert isinstance(sc, Scenario)
    assert sc.kind.name == "local_nls"
    assert sc.kind.params.mu1 == -1j and sc.kind.params.mu2 == 0.0
    assert sc.kind.companion == "adjoint"
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
    # the run records how it solved: one LU per system, and its threads
    assert manifest["factorisation"] == "openblas-getrf"
    assert (manifest["threads"], manifest["workers"], manifest["blas_threads"]) == (1, 1, 1)


def test_a_solve_never_imports_scipy(tmp_path):
    # scipy is installed but not a dependency; importing scipy.linalg
    # alone adds about 28 MB to a process's resident memory
    path = write_scenario(tmp_path, STUDY_NLS)
    code = ("import sys\n"
            "from hankelpde import cli\n"
            "assert cli.main(['solve', %r, '--out', %r]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            % (str(path), str(tmp_path / "out")))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_does_not_load_numpy_random(tmp_path):
    # numpy.random costs about 6 MB of resident memory and 30 ms to
    # import; the range finder draws its probes without it, so neither
    # the import nor a low-rank solve or study loads it
    path = write_scenario(tmp_path, STUDY_NLS)
    out = tmp_path / "out"
    code = ("import json, sys\n"
            "import hankelpde.cli as cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
            "print(loaded())\n"
            "assert cli.main(['solve', %r, '--out', %r]) == 0\n"
            "assert json.load(open(%r))['lowrank_solves'] == 25\n"
            "assert cli.main(['study', %r]) == 0\n"
            "print(loaded())\n"
            % (str(path), str(out), str(out / "manifest.json"), str(path)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[0] == lines[-1] == "[]"


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
            for value in (None, "abc", [1, "abc"], float("inf"), float("nan"), _DELETE):
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


@pytest.mark.parametrize("old, new", [
    ("quadrature: {L: 8.0, N: 16}", "quadrature: {L: .inf, N: 16}"),
    ("x: {start: -2.0, stop: 2.0, count: 9}", "x: [.inf]"),
], ids=["infinite_L", "infinite_x_sample"])
def test_main_solve_refuses_non_finite_numbers(tmp_path, capsys, old, new):
    text = (SCENARIO_DIR / "coupled_diffusion.yaml").read_text()
    assert old in text
    path = write_scenario(tmp_path, text.replace(old, new))
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("old, new, label", [
    ("N: 128}", "N: 128.7}", "quadrature.N"),
    ("M: 1536}", "M: 1536.5}", "grid.M"),
    ("count: 5}", "count: 5.9}", "samples.x.count"),
    ("kind: local_nls\n", "kind: local_nls\nsign: -1.5\n", "sign"),
    ("kind: local_nls\n", "kind: local_nls\nsign: true\n", "sign"),
    ("dims: [1, 1]", "dims: [1, true]", "dims"),
], ids=["fractional_N", "fractional_M", "fractional_count", "fractional_sign",
        "boolean_sign", "boolean_dims"])
def test_main_solve_refuses_non_integer_counts(tmp_path, capsys, old, new, label):
    # an integer field given a fraction or a bool must not be truncated
    # into a different run than the manifest records
    text = (SCENARIO_DIR / "nls_rank_one.yaml").read_text()
    assert old in text
    out = tmp_path / "out"
    path = write_scenario(tmp_path, text.replace(old, new, 1))
    assert main(["solve", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + label) and err.count("\n") == 1
    assert not out.exists()


def test_main_study_reports_patch_skipped_levels(tmp_path, capsys):
    # the middle t sample sits on the det2 zero of the coarsest rule
    # (N = 48), which the patch monitor skips; the finer rules solve it
    quad = make_quadrature(12.0, 48, 0.03125)
    t_star = np.log(float(np.sum(quad.weights * np.exp(2.0 * quad.nodes))))
    text = kdv_positive_text().replace("N: 192", "N: 48").replace(
        "x: [-0.25, 0.0, 0.25]", "x: [0.0]")
    text = text[:text.index("  t: [")] + "  t: [%.17g, %.17g, %.17g]\n" % (
        t_star - 0.25, t_star, t_star + 0.25) + "outputs: [center, det2]\n"
    path = write_scenario(tmp_path, text)
    report = convergence_study(parse_scenario(path), levels=3)
    assert [lv.skipped for lv in report.levels] == [1, 0, 0]
    assert main(["study", path, "--levels", "3"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("fitted order: ")
    assert out[-1] == "completed with patch-skipped samples: 1 at level 0"


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
    # is built once, and the backward error comes from the rank-one data's
    # low-rank solve, which builds no I + WQ, or from the dense solve of
    # the 2x2 data on the family's Q at x0, which is not built again
    calls = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(fredholm, "assemble_Q")
    counted(fredholm, "companion_profile")
    counted(fredholm, "nystrom_matrix")
    for scenario, systems in (("nls_rank_one_study", 0), ("nls_gaussian_2x2", 1)):
        calls.update(assemble_Q=0, companion_profile=0, nystrom_matrix=0)
        assert main(["verify", str(SCENARIO_DIR / (scenario + ".yaml"))]) == 0
        assert calls == {"assemble_Q": 5, "companion_profile": 1, "nystrom_matrix": systems}


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_main_verify_shipped_scenario(path):
    # kdv_soliton: exp-tagged real data, so the identity suite,
    # solve_edges and the residual all run in real arithmetic
    assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize("threshold, code", [("1.0e-12", 0), ("1.0e-6", 1)])
def test_main_verify_uses_the_scenario_patch_threshold(tmp_path, capsys, threshold, code):
    # det2 at x = 4 is about 3.9e-11, which solve accepts under 1e-12
    text = (SCENARIO_DIR / "kdv_soliton.yaml").read_text()
    for old, new in (("x: {start: -2.0, stop: 2.0, count: 9}", "x: [3.5, 4.0, 4.5]"),
                     ("t: {start: -2.0, stop: 2.0, count: 9}", "t: [0.0]"),
                     ("outputs: [center, det2, residuals]", "outputs: [center, det2]"),
                     ("patch_threshold: 1.0e-12", "patch_threshold: " + threshold)):
        assert old in text
        text = text.replace(old, new)
    assert main(["verify", write_scenario(tmp_path, text)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""


def test_main_solve_refuses_nonuniform_residual_axis_before_solving(tmp_path, capsys):
    text = (SCENARIO_DIR / "nls_gaussian_2x2.yaml").read_text().replace(
        "x: {start: -1.0, stop: 1.0, count: 9}", "x: [-1.0, -0.5, 0.0, 0.25, 1.0]")
    out = tmp_path / "out"
    assert main(["solve", write_scenario(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (out / "center.tsv").exists()


def test_richardson_refinement_is_checked_at_parse_time(tmp_path):
    # L/N is one master spacing, so the 2N rule falls between master nodes
    text = GAUSS_NLS_SMALL.replace("quadrature: {L: 8.0, N: 32}",
                                   "quadrature: {L: 8.0, N: 128}\nrichardson: true")
    path = write_scenario(tmp_path, text)
    with pytest.raises(ValueError, match="master spacing"):
        parse_scenario(path)
    assert main(["verify", path]) == 1


@pytest.mark.parametrize("command, threads", [("solve", "0"), ("study", "-3")])
def test_main_refuses_threads_below_one(tmp_path, capsys, command, threads):
    path = write_scenario(tmp_path, GAUSS_NLS_SMALL)
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "solve" else []
    assert main([command, path, "--threads", threads] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_traced_attributes_exist():
    # the traced benchmark wraps these attributes by name; a renamed one
    # would only show up there as calls = 0.  det2, solve_G and
    # hankel_rhs were deleted when solve_edges took over their work: the
    # tracer still names them and reports them as unwrapped, so they
    # must be gone, and every other name must be there
    deleted = {("fredholm", "det2"), ("fredholm", "solve_G"), ("fredholm", "hankel_rhs")}
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "fredholm": fredholm}
    for module, attribute, _ in spans.WRAPPED:
        assert module in modules, module
        if (module, attribute) in deleted:
            assert not hasattr(modules[module], attribute), (module, attribute)
        else:
            assert callable(getattr(modules[module], attribute, None)), (module, attribute)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "spans"])
def test_benchmark_child_solves_a_shipped_scenario(tmp_path, traced):
    # the benchmark's child process runs the real command line through
    # cli.parse_scenario and cli.evaluate_solution and counts samples and
    # skips from the PatchReport; it must run and count every sample
    root = Path(__file__).resolve().parents[1]
    scenario = SCENARIO_DIR / "nls_rank_one.yaml"
    sc = parse_scenario(str(scenario))
    out, times = tmp_path / "out", tmp_path / "times.json"
    cmd = [sys.executable, str(root / "perfbench" / "child.py"), "--times", str(times)]
    if traced:
        cmd += ["--spans", str(tmp_path / "spans.json")]
    cmd += ["--", "solve", str(scenario), "--out", str(out), "--threads", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("center.tsv", "det2.tsv", "manifest.json"):
        assert (out / name).stat().st_size > 0
    stamps = json.loads(times.read_text())
    assert stamps["samples"] == sc.xs.size * sc.ts.size == 25
    assert stamps["skipped"] == 0
    assert (tmp_path / "spans.json").exists() == traced


@pytest.mark.parametrize("name", ["nls_gaussian_2x2", "coupled_diffusion"])
def test_no_solve_takes_more_right_hand_sides_than_a_block_edge(tmp_path, monkeypatch, name):
    # verify and solve solve only the edges of G: every LU solve has at
    # most max(n, m) right-hand sides, never the K*m of a full G
    widths = []
    for method, axis in (("solve", 1), ("solve_rows", 0)):
        def counted(self, B, inner=getattr(lapack.LU, method), axis=axis):
            widths.append(B.shape[axis])
            return inner(self, B)
        monkeypatch.setattr(lapack.LU, method, counted)
    path = str(SCENARIO_DIR / (name + ".yaml"))
    sc = parse_scenario(path)
    assert main(["verify", path]) == 0
    verified = len(widths)
    assert main(["solve", path, "--out", str(tmp_path)]) == 0
    assert 0 < verified < len(widths)
    assert max(widths) <= max(sc.n, sc.m)


@pytest.mark.parametrize("start, stop, count", [(-0.01, 0.01, 9), (-0.8, 0.8, 6),
                                                (-0.8, 0.8, 9)])
def test_mirrored_sample_axes_are_exactly_antisymmetric(start, stop, count):
    vals = cli._sample_axis({"start": start, "stop": stop, "count": count}, "t")
    assert np.array_equal(vals, -vals[::-1])
    assert vals[0] == start and vals[-1] == stop
    assert np.abs(vals - np.linspace(start, stop, count)).max() <= 1e-16
    # so are a study's refined axes
    for factor in (2, 4):
        refined = cli._refine_axis(vals, factor)
        assert refined.size == (count - 1) * factor + 1
        assert np.array_equal(refined, -refined[::-1])


@pytest.mark.parametrize("name", ["rev_time_nls", "coupled_diffusion"])
def test_time_reversed_scenarios_evolve_each_time_once(monkeypatch, name):
    # the companion reads p at -t; on an exactly mirrored t axis every -t
    # is a sample time, so each one is evolved once
    calls = []
    evolve = fredholm.evolve

    def counted(p, params, t):
        calls.append(t)
        return evolve(p, params, t)

    monkeypatch.setattr(fredholm, "evolve", counted)
    sc = parse_scenario(str(SCENARIO_DIR / (name + ".yaml")))
    fredholm.evaluate_solution(sc)
    assert sorted(calls) == sorted(sc.ts) and len(calls) == 9


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


def test_write_table_bytes_equal_savetxt(tmp_path):
    # the one-pass writer gives np.savetxt's bytes for every float it may
    # meet: nan, +-inf, -0.0, subnormal-adjacent and complex entries
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 1.0 / 3.0, 2.5e17, -7.0]
    keys = np.array([[x, t] for x in special[:5] for t in special[5:]])
    rng = np.random.default_rng(5)
    values = np.empty((len(keys), 2), dtype=complex)
    values.real = rng.permutation(special * 10)[:2 * len(keys)].reshape(values.shape)
    values.imag = rng.permutation(special * 10)[:2 * len(keys)].reshape(values.shape)
    tail = np.abs(values[:, 0])
    path = tmp_path / "table.tsv"
    cli._write_table(str(path), ["x", "t", "a", "b", "c", "d", "abs"], keys, values, (tail,))
    re_im = np.stack([values.real, values.imag], axis=-1).reshape(len(keys), -1)
    np.savetxt(tmp_path / "want.tsv", np.column_stack([keys, re_im, tail]), fmt="%.17g",
               delimiter="\t", header="\t".join(["x", "t", "a", "b", "c", "d", "abs"]),
               comments="")
    got = path.read_bytes()
    assert got == (tmp_path / "want.tsv").read_bytes()
    for word in (b"nan", b"inf", b"-inf", b"-0", b"1e-300"):
        assert word in got


def test_manifest_is_strict_json_when_det2_overflows(tmp_path):
    # coupled_diffusion on a 6x finer master grid drives the dense det2
    # past the float range: the run prints no overflow warning, and the
    # manifest writes the infinite det2 values as null, never Infinity
    text = (SCENARIO_DIR / "coupled_diffusion.yaml").read_text().replace("M: 320", "M: 1920")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "hankelpde.cli", "solve",
                           write_scenario(tmp_path, text), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2, done.stderr
    assert "overflow" not in done.stderr and "Warning" not in done.stderr

    def refused(name):
        raise AssertionError("non-standard JSON constant %s" % name)

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refused)
    assert manifest["skipped"]
    assert any(row[4] is None for row in manifest["skipped"])


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
    assert sc.kind.companion == companion
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
    for changed in (dict(kind=replace(sc.kind, companion="transpose_rev_spacetime")),
                    dict(kind=replace(sc.kind, companion="neg_adjoint_rev_spacetime")),
                    dict(initial=gauss),
                    dict(n=2, m=2)):
        assert cli._rank_one_reference(replace(sc, **changed)) is None, changed


def _forbid_solving(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the study solved a level before checking them all")
    monkeypatch.setattr(cli, "evaluate_solution", refuse)


@pytest.mark.parametrize("scenario, old, new, levels", [
    # level 3 asks for a quadrature step of half a master spacing
    ("nls_rank_one_study.yaml", None, None, "4"),
    # an explicit non-uniform x list would be replaced by linspace samples
    ("rev_time_nls.yaml", "x: {start: -1.0, stop: 1.0, count: 9}",
     "x: [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.625, 1.0]", "3"),
    # the residual reference needs a t axis symmetric about 0
    ("rev_time_nls.yaml", "t: {start: -0.8, stop: 0.8, count: 9}",
     "t: {start: -0.8, stop: 0.7, count: 9}", "3"),
    # x steps of 3 master spacings put the level-1 midpoints between nodes
    ("rev_time_nls.yaml", "x: {start: -1.0, stop: 1.0, count: 9}",
     "x: {start: -0.1875, stop: 0.1875, count: 5}", "3"),
], ids=["finest_rule_off_grid", "nonuniform_x", "asymmetric_residual_t",
        "refined_x_off_grid"])
def test_main_study_checks_every_level_before_solving(tmp_path, capsys, monkeypatch,
                                                      scenario, old, new, levels):
    text = (SCENARIO_DIR / scenario).read_text()
    if old is not None:
        assert old in text
        text = text.replace(old, new).replace("outputs: [center, residuals]",
                                              "outputs: [center]")
    _forbid_solving(monkeypatch)
    assert main(["study", write_scenario(tmp_path, text), "--levels", levels]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def lowrank_texts():
    """A 3 x 3 cut of kdv_soliton (k = 385 and 769), 2x2 NLS at N = 192
    (k = 386) and nls_rank_one (k = 129 and 257): every rule's rank
    within k/4."""
    kdv = (SCENARIO_DIR / "kdv_soliton.yaml").read_text()
    for old, new in (("count: 9}", "count: 3}"),
                     ("outputs: [center, det2, residuals]", "outputs: [center, slices, det2]")):
        assert old in kdv
        kdv = kdv.replace(old, new)
    nls = (SCENARIO_DIR / "nls_gaussian_2x2.yaml").read_text()
    for old, new in (("M: 1280", "M: 1920"), ("N: 32", "N: 192"), ("count: 9}", "count: 3}"),
                     ("outputs: [center, residuals]", "outputs: [center, slices, det2]")):
        assert old in nls
        nls = nls.replace(old, new)
    return {"kdv": kdv, "nls_2x2": nls,
            "nls_rank_one": (SCENARIO_DIR / "nls_rank_one.yaml").read_text()}


@pytest.mark.parametrize("name", ["kdv", "nls_2x2", "nls_rank_one"])
def test_run_is_thread_independent_on_the_lowrank_path(tmp_path, name):
    # each run's path and the range finder's probes depend only on the
    # run's data, so the tables do not depend on which row thread solves
    # which sample
    sc = parse_scenario(write_scenario(tmp_path, lowrank_texts()[name]))
    tables = []
    for threads in (1, 2, 3):
        out = tmp_path / ("t%d" % threads)
        assert run(sc, out_dir=str(out), threads=threads) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        solves = len(sc.xs) * len(sc.ts) * (2 if sc.richardson else 1)
        assert manifest["lowrank_solves"] == solves and manifest["dense_solves"] == 0
        tables.append({p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))})
    assert tables[0] and tables[0] == tables[1] == tables[2]


def test_run_manifest_counts_the_solve_paths(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, lowrank_texts()["kdv"]))
    assert run(sc, out_dir=str(tmp_path / "kdv")) == 0
    manifest = json.loads((tmp_path / "kdv" / "manifest.json").read_text())
    assert (manifest["lowrank_solves"], manifest["dense_solves"], manifest["max_rank"]) == (18, 0, 1)
    # nls_rank_one's rules (k = 129 and 257) have rank one, so they go
    # low-rank too; nls_gaussian_2x2's (k = 66) rank passes k/4
    sc = parse_scenario(str(SCENARIO_DIR / "nls_rank_one.yaml"))
    assert run(sc, out_dir=str(tmp_path / "nls")) == 0
    manifest = json.loads((tmp_path / "nls" / "manifest.json").read_text())
    assert (manifest["lowrank_solves"], manifest["dense_solves"], manifest["max_rank"]) == (50, 0, 1)
    sc = parse_scenario(str(SCENARIO_DIR / "nls_gaussian_2x2.yaml"))
    assert run(sc, out_dir=str(tmp_path / "nls2")) == 0
    manifest = json.loads((tmp_path / "nls2" / "manifest.json").read_text())
    assert (manifest["lowrank_solves"], manifest["dense_solves"], manifest["max_rank"]) == (0, 81, None)


def test_run_patch_skip_above_the_cutoff_comes_from_the_lowrank_core(tmp_path, monkeypatch):
    # the pole sample of kdv_positive_pole at N = 384 (k = 385): with the
    # dense solve refused, the low-rank core's det2 = 0 still skips it
    # and the run exits 2
    def refused(*args, **kwargs):
        raise AssertionError("dense solve on the low-rank path")

    monkeypatch.setattr(fredholm, "solve_edges", refused)
    sc = parse_scenario(write_scenario(tmp_path, kdv_positive_text(N=384)))
    out = tmp_path / "out"
    assert run(sc, out_dir=str(out)) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert [row[:2] for row in manifest["skipped"]] == [[1, 1]]
    assert abs(manifest["skipped"][0][4]) < sc.tolerances["patch_threshold"]
    assert (manifest["lowrank_solves"], manifest["dense_solves"]) == (11, 0)


def test_verify_certifies_the_lowrank_path(monkeypatch):
    # verify's backward error comes from the selection solve runs: on
    # kdv_soliton (k = 385) that is the low-rank solve, with no dense
    # system built
    calls = []
    solve = fredholm.Run.solve

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        calls.extend(rank for _, rank in out)
        return out

    def refused(*args, **kwargs):
        raise AssertionError("dense solve on the low-rank path")

    monkeypatch.setattr(fredholm.Run, "solve", counted)
    monkeypatch.setattr(fredholm, "nystrom_matrix", refused)
    monkeypatch.setattr(fredholm, "LU", refused)
    assert main(["verify", str(SCENARIO_DIR / "kdv_soliton.yaml")]) == 0
    assert calls == [1]


@pytest.mark.parametrize("name, calls", [
    # one row per t sample; one run per row (x a whole number of steps
    # apart, within N of them) per rule and field whose rank passes k/4;
    # nls_rank_one's rank-one runs go low-rank and build no Q
    ("nls_gaussian_2x2", 9 * [(32, 8)]),
    ("nls_rank_one", []),
    ("coupled_diffusion", 9 * 2 * [(16, 8)]),
])
def test_assemble_Q_once_per_run_rule_and_field(name, calls, monkeypatch):
    made = []
    assemble = fredholm.assemble_Q

    def counted(p, ptil, x, quad, extension=0):
        made.append((quad.intervals, extension))
        return assemble(p, ptil, x, quad, extension)

    monkeypatch.setattr(fredholm, "assemble_Q", counted)
    _, report = fredholm.evaluate_solution(parse_scenario(str(SCENARIO_DIR / (name + ".yaml"))),
                                           threads=2)
    assert not report.any_below
    assert sorted(made) == sorted(calls)


def test_a_run_is_dropped_before_the_next_is_built(monkeypatch):
    # nls_gaussian_2x2 with its x samples split into two dense runs per t
    # row: when the second run builds its extended Q, the first, with its
    # own, is gone
    sc = parse_scenario(str(SCENARIO_DIR / "nls_gaussian_2x2.yaml"))
    h = sc.quad.spacing
    sc = replace(sc, xs=-1.0 + h * np.array([0.0, 1.0, 2.0, 0.5, 1.5]))
    assert [len(offsets) for _, offsets in fredholm.x_runs(sc.xs, sc.grid, sc.quad)] == [3, 2]
    dense, alive = [], []
    init = fredholm.Run.__init__

    def tracked(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in dense))
        init(self, *args, **kwargs)
        if self.Q is not None:
            dense.append(weakref.ref(self))

    monkeypatch.setattr(fredholm.Run, "__init__", tracked)
    _, report = fredholm.evaluate_solution(sc)
    assert not report.any_below
    assert len(dense) == len(alive) == 2 * sc.ts.size
    assert alive == [0] * len(alive)


def test_tables_are_bitwise_identical_across_threads(tmp_path):
    for name in ("nls_gaussian_2x2", "nls_rank_one", "coupled_diffusion", "mkdv_gaussian"):
        sc = parse_scenario(str(SCENARIO_DIR / (name + ".yaml")))
        tables = []
        for threads in (1, 2, 3):
            out = tmp_path / ("%s-%d" % (name, threads))
            assert run(sc, out_dir=str(out), threads=threads) == 0
            tables.append({p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))})
        assert tables[0] and tables[0] == tables[1] == tables[2]


def test_slices_are_held_only_when_read(tmp_path, monkeypatch):
    fields = []
    evaluate = cli.evaluate_solution

    def kept(scenario, **kwargs):
        field_out, report = evaluate(scenario, **kwargs)
        fields.append(field_out)
        return field_out, report

    monkeypatch.setattr(cli, "evaluate_solution", kept)
    mkdv = (SCENARIO_DIR / "mkdv_gaussian.yaml").read_text()
    # outputs: slices are written; residuals of a kernel kind read them;
    # residuals of a local kind do not
    kernel = mkdv.replace("kind: local_mkdv", "kind: kernel_mkdv").replace(
        "outputs: [center, slices, residuals]", "outputs: [center, residuals]")
    cases = ((mkdv, True), (kernel, True),
             ((SCENARIO_DIR / "nls_gaussian_2x2.yaml").read_text(), False))
    for i, (text, held) in enumerate(cases):
        path = write_scenario(tmp_path, text, "case%d.yaml" % i)
        assert run(parse_scenario(path), out_dir=str(tmp_path / ("out%d" % i))) == 0
        assert (fields[-1].slice_y is not None) == (fields[-1].slice_z is not None) == held
    names = [row[0] for row in json.loads((tmp_path / "out1" / "manifest.json").read_text())
             ["residuals"]]
    assert names == ["kernel_mkdv", "kernel_mkdv_slices"]
    # a study reads only the centre values, whatever the outputs ask for
    fields.clear()
    convergence_study(parse_scenario(str(SCENARIO_DIR / "mkdv_gaussian.yaml")), levels=3)
    assert len(fields) == 3
    assert all(f.slice_y is None and f.slice_z is None for f in fields)


def test_backward_error_above_solver_tol_skips_the_sample(tmp_path, capsys):
    # the same samples, certified against a solver_tol just below the
    # largest backward error the default run measured: that sample (and
    # any other above the bar) is skipped with its reason, the rest keep
    # their values, and solve and study exit 2
    text = (SCENARIO_DIR / "coupled_diffusion.yaml").read_text()
    sc = parse_scenario(write_scenario(tmp_path, text))
    field_ok, report_ok = fredholm.evaluate_solution(sc)
    berr = report_ok.backward_error
    tol = 0.999 * berr.max()
    above = {(int(it), int(ix)) for it, ix in np.argwhere(berr > tol)}
    assert above and not report_ok.skipped
    strict = text + "tolerances: {solver_tol: %.17e}\n" % tol
    path = write_scenario(tmp_path, strict, "strict.yaml")
    out = tmp_path / "out"
    assert main(["solve", path, "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert {tuple(row[:2]) for row in manifest["skipped"]} == above
    assert all(row[6] == "backward_error" for row in manifest["skipped"])
    assert manifest["max_backward_error"] == berr.max()
    field, report = fredholm.evaluate_solution(parse_scenario(path))
    for it, ix in np.ndindex(berr.shape):
        if (it, ix) in above:
            assert np.all(np.isnan(field.center[it, ix]))
            assert np.all(np.isnan(field.center_tilde[it, ix]))
        else:
            assert np.array_equal(field.center[it, ix], field_ok.center[it, ix])
    assert np.array_equal(report.det2, report_ok.det2)
    capsys.readouterr()
    assert main(["study", path, "--levels", "3"]) == 2
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "completed with patch-skipped samples: %d at level 0" % len(above))


def test_a_dense_solve_that_misses_solver_tol_exits_2(tmp_path):
    # coupled_diffusion on a 6x finer master grid: the backward heat flow
    # amplifies the round-off of its top modes past anything the solve
    # can certify, and the run must say so instead of printing the values
    text = (SCENARIO_DIR / "coupled_diffusion.yaml").read_text().replace("M: 320", "M: 1920")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["solve", write_scenario(tmp_path, text), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["skipped"]
    assert {row[6] for row in manifest["skipped"]} == {"backward_error"}
    assert manifest["max_backward_error"] > manifest["tolerances"]["solver_tol"]
    rows = np.loadtxt(out / "center.tsv", skiprows=1)
    assert np.isnan(rows[:, 2]).sum() == len(manifest["skipped"])
