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

from hankelpde import cli, floatfmt, fredholm, lapack
from hankelpde.cli import (
    Scenario,
    convergence_study,
    main,
    parse_scenario,
    run,
    verify,
)
from hankelpde.equations import stencil_reach
from hankelpde.fredholm import make_quadrature
from hankelpde.gridkernel import sample_profile
from oracles import full_grid_study_errors

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
    # and where its time went: the solve, the table writes, the total
    assert sorted(manifest["timings"]) == ["solve_s", "tables_s", "total_s"]


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
    # the import nor a low-rank solve or study loads it.  Nor numpy.ma
    # (about 7 ms and 0.7 MB), which np.unique imports on its first call:
    # a residual study's refined levels (cli._footprint) use no set
    # routine, and STUDY_NLS, on the closed form, never reaches them
    path = write_scenario(tmp_path, STUDY_NLS)
    out = tmp_path / "out"
    residual = SCENARIO_DIR / "nls_gaussian_2x2.yaml"
    code = ("import json, sys\n"
            "import hankelpde.cli as cli\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma']))\n"
            "print(loaded())\n"
            "assert cli.main(['solve', %r, '--out', %r]) == 0\n"
            # 5 x samples on the 3 rows t >= 0; the 2 at t < 0 are their
            # conjugates (fredholm.evaluate_solution)
            "assert json.load(open(%r))['lowrank_solves'] == 15\n"
            "assert cli.main(['study', %r]) == 0\n"
            "assert cli.main(['study', %r]) == 0\n"
            "print(loaded())\n"
            % (str(path), str(out), str(out / "manifest.json"), str(path), str(residual)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[0] == lines[-1] == "[]"


def test_writing_tables_loads_neither_fractions_nor_decimal(tmp_path):
    # the table writer builds its powers of ten from Python ints on first
    # use: importing fractions alone costs about 3 ms of start-up, so
    # neither the import, a solve that writes tables in numpy, nor a
    # study loads fractions or decimal
    text = STUDY_NLS.replace("outputs: [center, det2]", "outputs: [center, slices, det2]")
    path = write_scenario(tmp_path, text)
    code = ("import sys\n"
            "import hankelpde.cli as cli\n"
            "from hankelpde import floatfmt\n"
            "loaded = lambda: sorted(m for m in ('fractions', 'decimal') if m in sys.modules)\n"
            "print(loaded())\n"
            "assert cli.main(['solve', %r, '--out', %r]) == 0\n"
            "assert floatfmt._tables.cache_info().currsize == 1\n"
            "assert cli.main(['study', %r]) == 0\n"
            "print(loaded())\n"
            % (str(path), str(tmp_path / "out"), str(path)))
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


@pytest.mark.parametrize("name", ["nls_gaussian_2x2", "mkdv_gaussian", "coupled_diffusion",
                                  "rev_time_nls"])
def test_a_residual_study_reads_the_errors_of_the_full_grid(name):
    # mu2 = 0; mu2 != 0 (the 5-point x stencil); the partner at -t; a
    # reflected t: each level's footprint gives the error its whole
    # refined grid gives, level 0's to the bit
    sc = parse_scenario(str(SCENARIO_DIR / (name + ".yaml")))
    got = [lv.error for lv in convergence_study(sc, levels=3).levels]
    want = full_grid_study_errors(sc, levels=3)
    assert got[0] == want[0]
    assert np.allclose(got[1:], want[1:], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("name, kind, reach_x", [
    ("nls_gaussian_2x2", None, 1), ("rev_time_nls", None, 1),
    ("rev_time_nls", "rev_spacetime_nls", 1), ("mkdv_gaussian", None, 2),
    ("coupled_diffusion", None, 1), ("nls_rank_one_study", None, None)])
def test_study_levels_solve_the_footprint_they_read(
        tmp_path, monkeypatch, name, kind, reach_x):
    # every level solves its footprint on its refined axes, level 0 as
    # well; reach_x is how far the x stencils reach: 2 where the flow has
    # the 5-point third derivative (mu2 != 0), else 1; the t stencil
    # reaches 1; None marks the closed form, whose error reads every
    # sample of the refined grid
    axes = []
    evaluate = cli.evaluate_solution

    def kept(scenario, **kwargs):
        axes.append((scenario.xs, scenario.ts))
        return evaluate(scenario, **kwargs)

    monkeypatch.setattr(cli, "evaluate_solution", kept)
    text = (SCENARIO_DIR / (name + ".yaml")).read_text()
    if kind is not None:
        text = text.replace("kind: " + name, "kind: " + kind)
    sc = parse_scenario(write_scenario(tmp_path, text))
    report = convergence_study(sc, levels=3)
    assert report.reference == ("closed-form" if reach_x is None else "residual")
    assert len(axes) == 3
    reaches = (None, None) if reach_x is None else (reach_x, 1)
    for lev, solved in enumerate(axes):
        f = 2 ** lev
        for got, base, reach in zip(solved, (sc.xs, sc.ts), reaches):
            full = cli._refine_axis(base, f)
            if reach is None:
                assert np.array_equal(got, full)
                continue
            # base interior sample j is refined sample j f; each one
            # solves with the samples within reach of it, so level 0
            # solves base samples 2 - reach .. n - 3 + reach, and at
            # f = 4 an x reach of 1 solves 3 samples per base interior
            # sample and a reach of 2 solves 5, one shared with the next
            interior = f * np.arange(2, base.size - 2)
            want = np.unique(interior[:, None] + np.arange(-reach, reach + 1))
            assert np.array_equal(got, full[want])
            if f == 1:
                assert np.array_equal(got, base[2 - reach:base.size - 2 + reach])
            if f == 4:
                assert got.size == {1: 3 * interior.size, 2: 4 * interior.size + 1}[reach]
        # a reflected coordinate keeps its samples' mirrors
        if sc.kind.reflect_x:
            assert np.array_equal(solved[0], -solved[0][::-1])
        if sc.kind.reflect_t:
            assert np.array_equal(solved[1], -solved[1][::-1])
    # the t stencil's reach of 1 leaves out the first and last t sample,
    # so no residual level solves the whole scenario grid
    if reach_x is not None:
        assert axes[0][0].size * axes[0][1].size < sc.xs.size * sc.ts.size


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


@pytest.mark.parametrize("argv", [
    ["study", "s.yaml", "--levels", "abc"], ["solve"], ["bogus"], [],
    ["solve", "s.yaml", "--no-such-option"]],
    ids=["bad_levels", "no_scenario", "unknown_command", "no_command", "unknown_option"])
def test_usage_errors_exit_1_with_one_error_line(capsys, argv):
    # exit 2 means a run that went to the end with skipped samples, so a
    # usage error exits 1, as every other bad input does
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["study", "-h"]], ids=["top", "study"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hankelpde")


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


@pytest.mark.parametrize("name, old, new, code", [
    ("nls_gaussian_2x2", "outputs: [center, residuals]",
     "outputs: [center, residuals]\ntolerances: {patch_threshold: 1.0e+10}", 2),
    ("nls_rank_one_study", "amplitude: 1.0", "amplitude: 0.0", 0),
], ids=["every_sample_skipped", "zero_data"])
def test_main_study_prints_nan_without_a_warning(tmp_path, capsys, name, old, new, code):
    # a level whose base interior samples are all skipped has a NaN
    # error, and zero data have zero errors: the ratios and the fitted
    # order print as nan, and numpy warns of nothing
    text = (SCENARIO_DIR / (name + ".yaml")).read_text()
    assert old in text
    path = write_scenario(tmp_path, text.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["study", path, "--levels", "3"]) == code
    out = capsys.readouterr().out.splitlines()
    assert "ratios: nan, nan" in out and "fitted order: nan" in out


def test_run_manifest_records_backward_error(tmp_path):
    sc = parse_scenario(str(SCENARIO_DIR / "nls_gaussian_2x2.yaml"))
    out = tmp_path / "out"
    assert run(sc, out_dir=str(out), threads=2) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 < manifest["max_backward_error"] <= sc.tolerances["solver_tol"]


def test_parse_scenario_names_bad_tabulated_values(tmp_path):
    tabulated = GAUSS_NLS_SMALL.replace(
        "initial: {kind: gaussian, amplitude: 0.75, width: 1.0}",
        "initial: {kind: tabulated, values: [null, abc]}")
    with pytest.raises(ValueError, match="initial.values"):
        parse_scenario(write_scenario(tmp_path, tabulated))


def test_a_manifests_scenario_block_solves_to_the_same_run(tmp_path, monkeypatch):
    # tolerances come from the scenario file alone, so a HANKELPDE_*
    # variable left in the environment changes nothing the manifest
    # does not record
    monkeypatch.setenv("HANKELPDE_PATCH_THRESHOLD", "0.99")
    first = tmp_path / "first"
    code = main(["solve", str(SCENARIO_DIR / "nls_gaussian_2x2.yaml"), "--out", str(first)])
    manifest = json.loads((first / "manifest.json").read_text())
    monkeypatch.delenv("HANKELPDE_PATCH_THRESHOLD")
    recorded = tmp_path / "recorded.yaml"
    recorded.write_text(yaml.safe_dump(manifest["scenario"]))
    again = tmp_path / "again"
    assert main(["solve", str(recorded), "--out", str(again)]) == code == 0
    replayed = json.loads((again / "manifest.json").read_text())
    assert (manifest["tolerances"]["patch_threshold"]
            == replayed["tolerances"]["patch_threshold"] == 1e-8)
    assert manifest["outputs"] == replayed["outputs"]
    for name in manifest["outputs"]:
        assert (first / name).read_bytes() == (again / name).read_bytes()


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


@pytest.mark.parametrize("command, name, solves", [
    ("solve", "nls_gaussian_2x2", 1),
    ("study", "nls_rank_one_study", 3),
    ("verify", "mkdv_gaussian", 0),
], ids=["solve", "study", "verify"])
def test_each_command_samples_the_initial_data_once(tmp_path, monkeypatch, command, name,
                                                     solves):
    # parse_scenario samples p0, and every reader takes the Scenario's:
    # the solve, each study level and the verify checks sample nothing
    sampled, solved = [], []
    sample, evaluate = cli.sample_profile, cli.evaluate_solution

    def counted(*args):
        sampled.append(sample(*args))
        return sampled[-1]

    def recorded(scenario, **kwargs):
        solved.append(scenario.p0)
        return evaluate(scenario, **kwargs)

    monkeypatch.setattr(cli, "sample_profile", counted)
    monkeypatch.setattr(cli, "evaluate_solution", recorded)
    extra = {"solve": ["--out", str(tmp_path)], "study": ["--levels", "3"], "verify": []}
    assert main([command, str(SCENARIO_DIR / (name + ".yaml"))] + extra[command]) == 0
    assert len(sampled) == 1
    assert len(solved) == solves
    assert all(p0 is sampled[0] for p0 in solved)


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
    # hankel_rhs were deleted when solve_edges took over their work,
    # fredholm reads the Scenario's p0 instead of calling sample_profile,
    # and equations.residuals replaced the three residual functions:
    # the tracer still names them and reports them as unwrapped, so they
    # must be gone, and every other name must be there
    deleted = {("fredholm", "det2"), ("fredholm", "solve_G"), ("fredholm", "hankel_rhs"),
               ("fredholm", "sample_profile"), ("cli", "residual_local"),
               ("cli", "residual_kernel"), ("cli", "residual_coupled")}
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
    assert max(widths) <= max(sc.p0.rows, sc.p0.cols)


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
    n, m = sc.p0.rows, sc.p0.cols
    tables = {"center.tsv": "\t".join(["x", "t"] + heads("g", n, m)
                                      + heads("gt", m, n)) + "\n",
              "det2.tsv": "x\tt\tre_det2\tim_det2\tabs_det2\n"}
    for it, ix, x, t in samples:
        tables["center.tsv"] += fmt([x, t] + pairs(field_out.center[it, ix])
                                    + pairs(field_out.center_tilde[it, ix]))
        d = report.det2[it, ix]
        tables["det2.tsv"] += fmt([x, t, d.real, d.imag, abs(d)])
    for which, data in (("y", field_out.slice_y), ("z", field_out.slice_z)):
        text = "\t".join(["x", "t", "xi"] + heads("g", n, m)) + "\n"
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


def _savetxt(tmp_path, header, keys, values, tail=()):
    """np.savetxt's %.17g bytes of the table _write_table writes: one
    line per sample of the axes keys, t-major."""
    grids = np.meshgrid(keys[1], keys[0], *keys[2:], indexing="ij")
    columns = [grids[1].ravel(), grids[0].ravel()] + [g.ravel() for g in grids[2:]]
    columns.append(np.ascontiguousarray(values).reshape(columns[0].size, -1).view(float))
    path = tmp_path / "want.tsv"
    np.savetxt(path, np.column_stack(columns + [np.ravel(c) for c in tail]), fmt="%.17g",
               delimiter="\t", header="\t".join(header), comments="")
    return path.read_bytes()


def test_write_table_bytes_equal_savetxt(tmp_path, monkeypatch):
    # the writer gives np.savetxt's bytes for every float it may meet:
    # nan, +-inf, -0.0, the smallest subnormal, the largest float and
    # complex entries (which Python's format writes), and values on each
    # side of a %g layout switch: 1e-5 and 1e-4, 1e16, the largest
    # double below 1e17, 9.9999999999999999e16 and 1e17; in a table small
    # enough for Python's format and in one large enough for numpy's
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e-5,
               1e-300, -1e-300, 1.0 / 3.0, 2.5e17, -7.0, 1e-4, 1e16,
               np.nextafter(1e17, 0), 9.9999999999999999e16, 1e17]
    xs, ts = np.array(special[:8]), np.array(special[8:])
    rng = np.random.default_rng(5)
    values = np.empty((len(ts), len(xs), 2), dtype=complex)
    values.real = rng.permutation(special * 10)[:values.size].reshape(values.shape)
    values.imag = rng.permutation(special * 10)[:values.size].reshape(values.shape)
    tail = np.abs(values[..., 0])
    header = ["x", "t", "a", "b", "c", "d", "abs"]
    assert 5 * len(header) < floatfmt.FEW <= values.size * len(header) // 2
    for keys, rows in (((xs[:5], ts[:1]), np.s_[:1, :5]), ((xs, ts), np.s_[:, :])):
        path = tmp_path / "table.tsv"
        cli._write_table(str(path), header, keys, values[rows], (tail[rows],))
        got = path.read_bytes()
        assert got == _savetxt(tmp_path, header, keys, values[rows], (tail[rows],))
    for word in (b"nan", b"inf", b"-inf", b"-0", b"1e-300", b"4.9406564584124654e-324",
                 b"1.7976931348623157e+308", b"1.0000000000000001e-05", b"\t0.0001\t",
                 b"10000000000000000", b"99999999999999984", b"1e+17"):
        assert word in got

    # t rows that copy others, the rows at -t conjugating those at t:
    # their source rows hold nan, +-inf, +-0.0, a subnormal and an exact
    # decimal tie, 800000000000001 / 8 = 100000000000000.125; a copy row
    # formats only the values its source took to Python's format
    tie = 800000000000001 / 8
    assert str(800000000000001 * 5 ** 3) == "100000000000000125"
    xs, ts, xis = np.array([-0.5, 0.25, 1.0]), np.linspace(-0.4, 0.4, 5), np.linspace(-8, 0, 33)
    values = rng.standard_normal((5, 3, 33, 2)) + 1j * rng.standard_normal((5, 3, 33, 2))
    for it, sample in ((3, (0, 4)), (4, (1, 7)), (3, (2, 31))):
        values[it][sample] = [complex(np.nan, -np.inf), complex(-0.0, 0.0)]
        values[it][sample[0], sample[1] + 1] = [complex(5e-324, tie), complex(np.inf, -tie)]
    values[:2] = np.conj(values[:2:-1][:2])
    assert np.array_equal(values[0], np.conj(values[4]), equal_nan=True)
    tail = np.abs(values[..., 0])
    header = ["x", "t", "xi"] + ["c%d" % k for k in range(5)]
    sizes, records = [], floatfmt.records
    for module in (cli, floatfmt):
        monkeypatch.setattr(module, "records", lambda v: sizes.append(v.size) or records(v))
    path = tmp_path / "copies.tsv"
    cli._write_table(str(path), header, (xs, ts, xis), values, (tail,), copies={0: 4, 1: 3})
    assert path.read_bytes() == _savetxt(tmp_path, header, (xs, ts, xis), values, (tail,))
    row = 3 * 33 * 5
    assert floatfmt.FEW <= row
    slow = [records(np.column_stack([values[it].reshape(-1, 2).view(float),
                                     tail[it].ravel()]).ravel())[1].size
            for it in (4, 3)]
    assert min(slow) >= 8
    assert sizes == [3, 5, 33, row, slow[0], row, slow[1], row]
    for word in (b"\tnan\t", b"\t-inf\t", b"\tinf\t", b"\t-0\t", b"\t0\t",
                 b"4.9406564584124654e-324", b"\t100000000000000.12\t", b"\t-100000000000000.12"):
        assert word in path.read_bytes()


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
    square = cli.InitialDataSpec(kind="exponential", amplitude=np.eye(2), rate=1.0)
    for changed in (dict(kind=replace(sc.kind, companion="transpose_rev_spacetime")),
                    dict(kind=replace(sc.kind, companion="neg_adjoint_rev_spacetime")),
                    dict(p0=sample_profile(gauss, sc.p0.grid, 1, 1)),
                    dict(p0=sample_profile(square, sc.p0.grid, 2, 2))):
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
    # which sample; the NLS kinds on real data solve only the rows t >= 0
    sc = parse_scenario(write_scenario(tmp_path, lowrank_texts()[name]))
    conjugated = {"kdv": 0, "nls_2x2": 1, "nls_rank_one": 2}[name]
    tables = []
    for threads in (1, 2, 3):
        out = tmp_path / ("t%d" % threads)
        assert run(sc, out_dir=str(out), threads=threads) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        solves = len(sc.xs) * (len(sc.ts) - conjugated) * (2 if sc.richardson else 1)
        assert manifest["lowrank_solves"] == solves and manifest["dense_solves"] == 0
        assert manifest["conjugated_rows"] == conjugated
        tables.append({p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))})
    assert tables[0] and tables[0] == tables[1] == tables[2]


def test_run_manifest_counts_the_solve_paths(tmp_path):
    sc = parse_scenario(write_scenario(tmp_path, lowrank_texts()["kdv"]))
    assert run(sc, out_dir=str(tmp_path / "kdv")) == 0
    counts = ("lowrank_solves", "dense_solves", "max_rank", "conjugated_rows")
    manifest = json.loads((tmp_path / "kdv" / "manifest.json").read_text())
    assert tuple(manifest[key] for key in counts) == (18, 0, 1, 0)
    # nls_rank_one's rules (k = 129 and 257) have rank one, so they go
    # low-rank too; nls_gaussian_2x2's (k = 66) rank passes k/4.  Both
    # have real data, so only their rows t >= 0 solve, 3 of 5 and 5 of 9
    sc = parse_scenario(str(SCENARIO_DIR / "nls_rank_one.yaml"))
    assert run(sc, out_dir=str(tmp_path / "nls")) == 0
    manifest = json.loads((tmp_path / "nls" / "manifest.json").read_text())
    assert tuple(manifest[key] for key in counts) == (30, 0, 1, 2)
    sc = parse_scenario(str(SCENARIO_DIR / "nls_gaussian_2x2.yaml"))
    assert run(sc, out_dir=str(tmp_path / "nls2")) == 0
    manifest = json.loads((tmp_path / "nls2" / "manifest.json").read_text())
    assert tuple(manifest[key] for key in counts) == (0, 45, None, 4)
    # with a complex amplitude every row solves
    sc = complex_nls_2x2()
    assert run(sc, out_dir=str(tmp_path / "nls2c")) == 0
    manifest = json.loads((tmp_path / "nls2c" / "manifest.json").read_text())
    assert tuple(manifest[key] for key in counts) == (0, 81, None, 0)


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
    # 12 samples, the skipped one's core included
    assert (manifest["lowrank_solves"], manifest["dense_solves"]) == (12, 0)


def test_verify_certifies_the_lowrank_path(monkeypatch):
    # verify's backward error comes from the selection solve runs: on
    # kdv_soliton (k = 385) that is the low-rank solve, with no dense
    # system built
    calls = []
    solve = fredholm.Run.solve

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        calls.extend(rank for edges in out for rank in edges.ranks)
        return out

    def refused(*args, **kwargs):
        raise AssertionError("dense solve on the low-rank path")

    monkeypatch.setattr(fredholm.Run, "solve", counted)
    monkeypatch.setattr(fredholm, "nystrom_matrix", refused)
    monkeypatch.setattr(fredholm, "LU", refused)
    assert main(["verify", str(SCENARIO_DIR / "kdv_soliton.yaml")]) == 0
    assert calls == [1]


def complex_nls_2x2():
    """nls_gaussian_2x2 with one amplitude entry complex, 0.32 -> 0.2+0.25i
    (the same modulus): no row is the conjugate of another."""
    sc = parse_scenario(str(SCENARIO_DIR / "nls_gaussian_2x2.yaml"))
    amplitude = [[0.5, 0.2 + 0.25j], [0.1, 0.4]]
    spec = cli.InitialDataSpec(kind="gaussian", amplitude=amplitude, width=1.0)
    p0 = sample_profile(spec, sc.p0.grid, 2, 2)
    assert np.allclose(np.abs(p0.samples), np.abs(sc.p0.samples), atol=1e-3)
    return replace(sc, p0=p0)


@pytest.mark.parametrize("name, calls", [
    # one row per t sample of its own solve; one run per row (x a whole
    # number of steps apart, within N of them) per rule whose rank passes
    # k/4; nls_gaussian_2x2 has real data, so its 4 rows at t < 0 are the
    # conjugates of its rows at -t and build nothing, and with a complex
    # amplitude all 9 rows solve; nls_rank_one's rank-one runs go
    # low-rank and build no Q, and the coupled partner is the solve at -t,
    # which builds no Q of its own
    ("nls_gaussian_2x2", 5 * [(32, 8)]),
    ("nls_rank_one", []),
    ("coupled_diffusion", 9 * [(16, 8)]),
    ("nls_gaussian_2x2_complex", 9 * [(32, 8)]),
])
def test_assemble_Q_once_per_run_rule_and_field(name, calls, monkeypatch):
    made = []
    assemble = fredholm.assemble_Q

    def counted(p, ptil, x, quad, extension=0):
        made.append((quad.intervals, extension))
        return assemble(p, ptil, x, quad, extension)

    monkeypatch.setattr(fredholm, "assemble_Q", counted)
    sc = (complex_nls_2x2() if name == "nls_gaussian_2x2_complex"
          else parse_scenario(str(SCENARIO_DIR / (name + ".yaml"))))
    _, report = fredholm.evaluate_solution(sc, threads=2)
    assert not report.any_below
    assert sorted(made) == sorted(calls)


def test_a_run_is_dropped_before_the_next_is_built(monkeypatch):
    # nls_gaussian_2x2 with its x samples split into two dense runs per
    # solved t row: when the second run builds its extended Q, the first,
    # with its own, is gone.  The real data solve the 5 rows t >= 0 (the
    # rows t < 0 are their conjugates), the complex ones all 9
    dense, alive = [], []
    init = fredholm.Run.__init__

    def tracked(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in dense))
        init(self, *args, **kwargs)
        if self.Q is not None:
            dense.append(weakref.ref(self))

    monkeypatch.setattr(fredholm.Run, "__init__", tracked)
    for sc, rows in ((parse_scenario(str(SCENARIO_DIR / "nls_gaussian_2x2.yaml")), 5),
                     (complex_nls_2x2(), 9)):
        h = sc.quad.spacing
        sc = replace(sc, xs=-1.0 + h * np.array([0.0, 1.0, 2.0, 0.5, 1.5]))
        assert ([len(offsets) for _, _, offsets in fredholm.x_runs(sc.xs, sc.p0.grid, sc.quad)]
                == [3, 2])
        dense.clear()
        alive.clear()
        _, report = fredholm.evaluate_solution(sc)
        assert not report.any_below
        assert len(dense) == len(alive) == 2 * rows
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


@pytest.mark.parametrize("name", ["nls_gaussian_2x2", "coupled_diffusion", "kdv_positive_pole"])
def test_permuting_ts_permutes_the_rows(name):
    # a row is its time's solve, whatever the order of ts: conjugated from
    # its mirror (nls_gaussian_2x2), paired with the partner read at -t
    # (coupled_diffusion) or skipped (kdv_positive_pole), the same bits
    sc = parse_scenario(str(SCENARIO_DIR / (name + ".yaml")))
    want, want_report = fredholm.evaluate_solution(sc, threads=2)
    count = sc.ts.size
    for order in (np.arange(count)[::-1], np.r_[1:count:2, 0:count:2][::-1]):
        got, report = fredholm.evaluate_solution(replace(sc, ts=sc.ts[order]), threads=2)
        for values, reference in ((got.center, want.center),
                                  (got.center_tilde, want.center_tilde),
                                  (report.det2, want_report.det2),
                                  (report.backward_error, want_report.backward_error)):
            assert (values is None) == (reference is None)
            if values is not None:
                assert np.array_equal(values, reference[order], equal_nan=True)
        assert report.conjugated_rows == want_report.conjugated_rows
        where = np.argsort(order)
        assert sorted(report.skipped) == sorted((where[it], *rest)
                                                for it, *rest in want_report.skipped)
    assert bool(want_report.skipped) == (name == "kdv_positive_pole")


@pytest.mark.parametrize("name, times, rules", [
    pytest.param("coupled_diffusion", 9, 1, id="coupled_diffusion-9"),
    pytest.param("rev_time_nls", 5, 1, id="rev_time_nls-5"),
    pytest.param("kdv_positive_pole", 4, 1, id="kdv_positive_pole-4"),
    pytest.param("kdv_positive_pole", 4, 2, id="kdv_positive_pole-4-richardson")])
def test_the_ranks_are_those_of_every_solved_record(tmp_path, monkeypatch, name, times, rules):
    # PatchReport.ranks holds the ranks of every record solve_samples
    # returned, each solved time once, at every --threads: the coupled
    # partners at the -t that are no sample times (t >= 0 only: 1 + 2 * 4
    # times), none for the 4 conjugated rows of real-amplitude
    # rev_time_nls, and the skipped pole sample's own core, on every
    # rule it was solved on
    text = (SCENARIO_DIR / (name + ".yaml")).read_text()
    sc = parse_scenario(write_scenario(tmp_path, text.replace("0.6+0.45i", "0.75")))
    sc = replace(sc, richardson=rules == 2)
    if name == "coupled_diffusion":
        sc = replace(sc, ts=sc.ts[sc.ts >= 0])
    solve = fredholm.solve_samples
    returned = []

    def recorded(*args):
        records = solve(*args)
        returned.append(records)
        return records

    monkeypatch.setattr(fredholm, "solve_samples", recorded)
    solved = []
    for threads in (1, 2):
        returned.clear()
        _, report = fredholm.evaluate_solution(sc, threads=threads)
        calls = [[r for edges in records for r in edges.ranks] for records in returned]
        if threads == 1:
            assert report.ranks == [r for call in calls for r in call]
        solved.append((report.ranks, sorted(calls, key=repr)))
    assert solved[0] == solved[1]
    assert len(report.ranks) == times * sc.xs.size * rules
    assert report.conjugated_rows == (4 if name == "rev_time_nls" else 0)
    assert bool(report.skipped) == (name == "kdv_positive_pole")


def _table_numbers(path):
    """A table's numbers, row by row: every column but residuals' names."""
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    return np.array([[float(v) for v in (row[1:] if path.name == "residuals.tsv" else row)]
                     for row in rows])


@pytest.mark.parametrize("name", ["mkdv_gaussian", "nls_gaussian_2x2"])
def test_the_numpy_linalg_fallback_solves_end_to_end(tmp_path, monkeypatch, name):
    # where numpy's OpenBLAS exports no getrf, LU is numpy.linalg's and
    # the BLAS thread count is left alone: dense solves in real
    # arithmetic (mkdv_gaussian) and in complex arithmetic, with the rows
    # at -t conjugated (nls_gaussian_2x2), give the getrf path's tables
    # to round-off
    sc = parse_scenario(str(SCENARIO_DIR / (name + ".yaml")))
    code = run(sc, out_dir=str(tmp_path / "getrf"), threads=1)
    monkeypatch.setattr(lapack, "_routines", lambda: {})
    assert run(sc, out_dir=str(tmp_path / "numpy"), threads=1) == code
    manifest = json.loads((tmp_path / "numpy" / "manifest.json").read_text())
    assert manifest["factorisation"] == "numpy-linalg" and manifest["blas_threads"] is None
    tables = sorted((tmp_path / "getrf").glob("*.tsv"))
    assert tables and sorted(manifest["outputs"]) == [p.name for p in tables]
    for path in tables:
        want, got = _table_numbers(path), _table_numbers(tmp_path / "numpy" / path.name)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
    # level 0 solves, and so counts the skips in, only its footprint:
    # the samples within the stencils' reach of the base interior ones
    reach_t, reach_x = stencil_reach(sc.kind)
    rows = set(cli._footprint(sc.ts.size, 1, reach_t))
    cols = set(cli._footprint(sc.xs.size, 1, reach_x))
    inside = sum(it in rows and ix in cols for it, ix in above)
    assert 0 < inside < len(above)
    capsys.readouterr()
    assert main(["study", path, "--levels", "3"]) == 2
    last = capsys.readouterr().out.splitlines()[-1]
    head, counts = last.split(": ")
    assert head == "completed with patch-skipped samples"
    assert counts.split(", ")[0] == "%d at level 0" % inside


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


def conjugation_texts():
    """Real data under each conjugation-reversible kind, every field kept:
    the 2x2 local_nls scenario, exp-tagged local_nls data, and a small
    real Gaussian under kernel_nls, rev_time_nls (whose companion is p at
    -t) and rev_spacetime_nls (which also reflects s)."""
    keep = "outputs: [center, slices, det2]"
    small = GAUSS_NLS_SMALL + keep + "\n"
    return {
        "local_nls": (SCENARIO_DIR / "nls_gaussian_2x2.yaml").read_text().replace(
            "outputs: [center, residuals]", keep),
        "local_nls_exponential": STUDY_NLS.replace("outputs: [center, det2]", keep),
        "kernel_nls": small.replace("kind: local_nls", "kind: kernel_nls"),
        "rev_time_nls": small.replace("kind: local_nls", "kind: rev_time_nls"),
        "rev_spacetime_nls": small.replace("kind: local_nls", "kind: rev_spacetime_nls"),
    }


@pytest.mark.parametrize("name", sorted(conjugation_texts()))
def test_rows_at_minus_t_are_the_conjugates_of_their_mirrors(tmp_path, name):
    # on real data each row at -t is the conjugate of the solve at t,
    # exactly, in every field the run keeps, with the same backward
    # error; it agrees with a solve of its own to round-off and passes
    # solver_tol as that solve does
    sc = parse_scenario(write_scenario(tmp_path, conjugation_texts()[name]))
    assert sc.kind.name == name.replace("_exponential", "")
    field_out, report = fredholm.evaluate_solution(sc, threads=2)
    assert not report.any_below and not report.skipped
    ts = list(sc.ts)
    mirrors = [(it, ts.index(-t)) for it, t in enumerate(ts) if t < 0]
    assert len(mirrors) == report.conjugated_rows == (len(ts) - 1) // 2
    for it, mirror in mirrors:
        for values in (field_out.center, field_out.slice_y, field_out.slice_z, report.det2):
            assert np.array_equal(values[it], np.conj(values[mirror]))
        assert np.array_equal(report.backward_error[it], report.backward_error[mirror])
    kind, tol = sc.kind, sc.tolerances["solver_tol"]
    p0 = sc.p0
    assert (p0.exp_tag is not None) == name.endswith("_exponential")
    rules = fredholm.quadrature_rules(sc.quad, sc.richardson)
    for it, _ in mirrors:
        t = ts[it]
        (p_t, ptil), = fredholm.pairings(p0, kind.params, kind.companion, [t])
        assert p_t.time_stamp == t
        own = fredholm.solve_samples(p_t, ptil, sc.xs, rules, tol=tol)
        for ix, edges in enumerate(own):
            assert edges.berr <= tol and report.backward_error[it, ix] <= tol
            scale = np.abs(edges.row).max()
            assert abs(edges.det2 - report.det2[it, ix]) <= 1e-12 * abs(edges.det2)
            for got, want in ((field_out.center[it, ix], edges.row[-1]),
                              (field_out.slice_y[it, ix], edges.col),
                              (field_out.slice_z[it, ix], edges.row)):
                assert np.abs(got - want).max() <= 1e-12 * scale
    tables = []
    for threads in (1, 2, 3):
        out = tmp_path / ("t%d" % threads)
        assert run(sc, out_dir=str(out), threads=threads) == 0
        tables.append({p.name: p.read_bytes() for p in sorted(out.glob("*.tsv"))})
    assert len(tables[0]) == 4 and tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("scale", [1, 6])
def test_solve_tables_are_the_arrays_it_solved(tmp_path, monkeypatch, scale):
    # nls_gaussian_2x2 fills its 4 rows at -t by conjugation, and the
    # table writer formats only their sources; at 6x the amplitude 22 of
    # the 81 samples are patch-skipped, so copy rows hold NaN.  At one
    # thread and at two every table is %.17g of the returned arrays
    text = (SCENARIO_DIR / "nls_gaussian_2x2.yaml").read_text().replace(
        "outputs: [center, residuals]", "outputs: [center, slices, det2]")
    text = text.replace("[[0.5, 0.32], [0.1, 0.4]]", "[[%r, %r], [%r, %r]]" % tuple(
        scale * a for a in (0.5, 0.32, 0.1, 0.4)))
    sc = parse_scenario(write_scenario(tmp_path, text))
    solved, evaluate = [], cli.evaluate_solution
    monkeypatch.setattr(cli, "evaluate_solution",
                        lambda *args, **kwargs: solved.append(evaluate(*args, **kwargs))
                        or solved[-1])
    for threads in (1, 2):
        out = tmp_path / ("t%d" % threads)
        assert run(sc, out_dir=str(out), threads=threads) == (2 if scale == 6 else 0)
        field_out, report = solved[-1]
        assert len(report.skipped) == (22 if scale == 6 else 0)
        assert field_out.copies == {0: 8, 1: 7, 2: 6, 3: 5}
        assert len(field_out.copies) == report.conjugated_rows
        assert np.isnan(field_out.center[:4]).any() == (scale == 6)
        axes, heads = (field_out.xs, field_out.ts), cli._entry_headers("g", 2, 2)
        want = {"center.tsv": _savetxt(tmp_path, ["x", "t"] + heads, axes, field_out.center),
                "det2.tsv": _savetxt(tmp_path, ["x", "t", "re_det2", "im_det2", "abs_det2"],
                                     axes, report.det2, ([abs(d) for d in report.det2.ravel()],))}
        for which, data in (("y", field_out.slice_y), ("z", field_out.slice_z)):
            want["slice_%s.tsv" % which] = _savetxt(tmp_path, ["x", "t", "xi"] + heads,
                                                    axes + (field_out.quad.nodes,), data)
        assert {p.name: p.read_bytes() for p in out.glob("*.tsv")} == want


def test_a_skip_at_t_is_the_conjugated_skip_at_minus_t(tmp_path):
    # a patch threshold just above |det2| at (x, t) skips that sample and
    # its conjugate at (x, -t), which carries the conjugated det2; asked
    # to raise, the run names the first of the two in t order, -t
    text = GAUSS_NLS_SMALL.replace("t: {start: -0.2, stop: 0.2, count: 5}",
                                   "t: [-0.2, 0.2]") + "outputs: [center, det2]\n"
    sc = parse_scenario(write_scenario(tmp_path, text))
    _, report = fredholm.evaluate_solution(sc)
    assert report.conjugated_rows == 1 and not report.skipped
    d = report.det2[1]
    ix = int(np.argmin(np.abs(d)))
    assert np.sum(np.abs(d) <= abs(d[ix])) == 1
    cut = dict(sc.tolerances, patch_threshold=abs(d[ix]) * (1 + 1e-9))
    sc = replace(sc, tolerances=cut)
    field_out, report = fredholm.evaluate_solution(sc)
    x = float(sc.xs[ix])
    assert report.skipped == [(0, ix, -0.2, x, np.conj(d[ix]), "det2"),
                              (1, ix, 0.2, x, d[ix], "det2")]
    assert np.isnan(field_out.center[:, ix]).all()
    assert np.array_equal(report.det2, np.array([np.conj(d), d]))
    with pytest.raises(fredholm.PatchError) as err:
        fredholm.evaluate_solution(sc, skip_on_patch_error=False)
    assert (err.value.x, err.value.t, err.value.det2_value) == (x, -0.2, np.conj(d[ix]))


@pytest.mark.parametrize("name", ["rev_time_nls", "mkdv_gaussian", "coupled_diffusion"])
def test_no_row_is_conjugated_without_real_data_and_an_imaginary_flow(name):
    # rev_time_nls has a complex amplitude (0.6+0.45i); mkdv_gaussian and
    # coupled_diffusion have real data under real flows: every row solves
    sc = parse_scenario(str(SCENARIO_DIR / (name + ".yaml")))
    assert sc.kind.conjugation_reversible == (name == "rev_time_nls")
    _, report = fredholm.evaluate_solution(sc, threads=2)
    assert not report.any_below
    assert report.conjugated_rows == 0
    # the coupled partner at t is the row at -t, a sample time here
    assert len(report.ranks) == sc.xs.size * sc.ts.size

