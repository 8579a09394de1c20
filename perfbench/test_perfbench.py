"""Tests of the benchmark's own logic (no solver runs).

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys
import threading

import numpy as np
import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import run  # noqa: E402
import scengen  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_of_nested_spans():
    tree = [Span(0, "root", 0.0, 10.0, 1, None, True),
            Span(1, "a", 1.0, 4.0, 1, 0, True),
            Span(2, "b", 5.0, 9.0, 1, 0, True),
            Span(3, "c", 6.0, 7.5, 1, 2, True)]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 2.5, 3: 1.5})
    # a single-threaded tree partitions the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert spans.overlap_excess(tree) == 0.0


def test_concurrent_children_are_covered_once():
    tree = [Span(0, "eval", 0.0, 10.0, 1, None, True),
            Span(1, "solve", 1.0, 6.0, 2, 0, True),
            Span(2, "solve", 2.0, 8.0, 3, 0, True)]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(3.0)
    assert spans.overlap_excess(tree) == pytest.approx(4.0)
    assert sum(selfs.values()) - spans.overlap_excess(tree) == pytest.approx(10.0)


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 4), (1, 2), (3, 5)]) == 5.0


def test_recorder_links_parents_across_threads_and_flags_failures():
    ticks = iter(range(1000))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def leaf(fail=False):
        if fail:
            raise ValueError("patch")
        return 1

    leaf_w = rec.wrap(leaf, "leaf")

    def outer():
        worker = threading.Thread(target=leaf_w)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        with pytest.raises(ValueError):
            leaf_w(fail=True)
        return leaf_w()

    assert rec.wrap(outer, "outer")() == 1
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["outer"]
    assert root.parent is None
    assert [s.parent for s in by_name["leaf"]] == [root.id] * 3
    assert len({s.thread for s in by_name["leaf"]}) == 2
    assert sorted(s.ok for s in by_name["leaf"]) == [False, True, True]


def test_layer_metrics_report_silent_layers_as_zero():
    tree = [Span(0, "fredholm.evaluate_solution", 0.0, 10.0, 1, None, True),
            Span(1, "fredholm.solve_G", 1.0, 5.0, 2, 0, True),
            Span(2, "fredholm.solve_G", 2.0, 6.0, 3, 0, False)]
    vals = spans.layer_metrics(tree, threads=2)
    assert vals["fredholm.assemble_Q.calls"] == (0, "count")
    assert vals["fredholm.solve_G.calls"][0] == 2
    assert vals["fredholm.patch_skips"][0] == 1
    assert vals["fredholm.solved_ratio"][0] == 0.5
    assert vals["fredholm.evaluate_solution.thread_busy_ratio"][0] == pytest.approx(0.4)
    assert vals["fredholm.evaluate_solution.self_s"][0] == pytest.approx(5.0)


@pytest.mark.parametrize("workload", sorted(scengen.WORKLOADS))
def test_generator_is_deterministic_and_sizes_ignore_the_seed(workload):
    assert scengen.scenario_text(workload, 7) == scengen.scenario_text(workload, 7)
    assert scengen.scenario_text(workload, 7) != scengen.scenario_text(workload, 8)

    def sizes(d):
        return (d["grid"], d["quadrature"], d["dims"],
                [d["samples"][a]["count"] for a in "xt"])

    first = scengen.GENERATORS[workload](1)
    for seed in range(2, 30):
        assert sizes(scengen.GENERATORS[workload](seed)) == sizes(first)


@pytest.mark.parametrize("workload", sorted(scengen.WORKLOADS))
def test_generated_scenarios_parse(workload, tmp_path):
    from hankelpde.cli import parse_scenario
    for seed in range(1, 30):
        path = tmp_path / ("%d.yaml" % seed)
        scengen.write_scenario(str(path), workload, seed)
        sc = parse_scenario(str(path))
        assert (sc.xs.size, sc.ts.size) == scengen.WORKLOADS[workload]["samples"]


def _kdv_center_table(path, scenario, perturb=0.0):
    amp = scenario["initial"]["amplitude"]
    ax = scenario["samples"]["x"]
    at = scenario["samples"]["t"]
    xs = [ax["start"] + i * (ax["stop"] - ax["start"]) / (ax["count"] - 1)
          for i in range(ax["count"])]
    ts = [at["start"] + i * (at["stop"] - at["start"]) / (at["count"] - 1)
          for i in range(at["count"])]
    with open(path, "w") as fh:
        fh.write("x\tt\tre_g00\tim_g00\n")
        for k, (t, x) in enumerate((t, x) for t in ts for x in xs):
            theta = amp * math.exp(x - t)
            g = 2.0 * theta / (2.0 - theta) + (perturb if k == 7 else 0.0)
            fh.write("%.17g\t%.17g\t%.17g\t%.17g\n" % (x, t, g, 0.0))


def test_gate_rejects_a_perturbed_center_table(tmp_path):
    scenario = scengen.kdv_soliton(3)
    _kdv_center_table(tmp_path / "center.tsv", scenario)
    good = gate.check_solve("kdv_soliton", scenario, str(tmp_path))
    assert good.ok and good.error_max < 1e-12

    _kdv_center_table(tmp_path / "center.tsv", scenario, perturb=1e-5)
    bad = gate.check_solve("kdv_soliton", scenario, str(tmp_path))
    assert not bad.ok
    assert bad.error_max == pytest.approx(1e-5, rel=1e-3)

    (tmp_path / "center.tsv").unlink()
    assert not gate.check_solve("kdv_soliton", scenario, str(tmp_path)).ok


def test_nls_reference_matches_the_solver(tmp_path):
    from hankelpde.cli import parse_scenario
    from hankelpde.fredholm import evaluate_solution
    scenario = scengen.nls2x2_wide(4)
    x, t = scenario["samples"]["x"]["start"], scenario["samples"]["t"]["stop"]
    scenario["samples"] = {"x": [x], "t": [t]}
    scenario["outputs"] = ["center"]
    path = tmp_path / "one.yaml"
    path.write_text(yaml.safe_dump(scenario))
    field_out, _ = evaluate_solution(parse_scenario(str(path)))
    ref = gate.nls_center_reference(scenario, x, t)
    assert np.abs(field_out.center[0, 0] - ref).max() < 1e-12


def test_gate_rejects_an_nls_center_off_by_two_percent(tmp_path):
    scenario = scengen.nls2x2_wide(4)
    ax, at = scenario["samples"]["x"], scenario["samples"]["t"]
    corners = [(ax["start"], at["start"]), (ax["stop"], at["stop"])]
    refs = [gate.nls_center_reference(scenario, x, t).ravel() for x, t in corners]
    n = ax["count"] * at["count"]
    K = scenario["quadrature"]["N"] + 1

    def write(scale):
        with open(tmp_path / "center.tsv", "w") as fh:
            fh.write("x\tt" + "\tre\tim" * 4 + "\n")
            for k in range(n):
                (x, t), g = (corners[0], refs[0]) if k == 0 else (corners[1], refs[1])
                if k == 0:
                    g = g * scale
                vals = [x, t] + [v for z in g for v in (z.real, z.imag)]
                fh.write("\t".join("%.17g" % v for v in vals) + "\n")
        for which in ("y", "z"):
            with open(tmp_path / ("slice_%s.tsv" % which), "w") as fh:
                fh.write("header\n" + "0\n" * (n * K))
        with open(tmp_path / "residuals.tsv", "w") as fh:
            fh.write("equation\tmax\tl2\nlocal_nls\t0.048\t0.027\n")

    write(1.0)
    assert gate.check_solve("nls2x2_wide", scenario, str(tmp_path)).ok
    write(1.02)
    assert not gate.check_solve("nls2x2_wide", scenario, str(tmp_path)).ok


def test_gate_checks_the_study_order():
    report = ("reference: residual\nlevel\tN\tdx\tdt\terror\n"
              "0\t32\t0.5\t0.2\t2.6e-02\n1\t64\t0.25\t0.1\t7.3e-03\n"
              "2\t128\t0.125\t0.05\t%s\nratios: 3.6, 3.9\nfitted order: %s\n")
    ok = gate.check_study(report % ("1.9e-03", "1.904"))
    assert ok.ok and ok.error_max == 1.9e-03
    assert not gate.check_study(report % ("1.9e-03", "1.204")).ok
    assert not gate.check_study(report % ("nan", "1.904")).ok


def test_error_digits_stay_finite():
    assert run.error_digits(1e-7) == pytest.approx(7.0)
    assert run.error_digits(0.0) == 300.0
    assert run.error_digits(math.inf) == run.error_digits(math.nan) == -300.0


def test_summary_percentile_leaves_ten_samples_beyond():
    assert run.summary([3.0, 1.0, 2.0])["p"] is None
    s = run.summary([float(v) for v in range(1, 41)])
    assert s["median"] == 20.5 and s["n"] == 40
    assert s["p"] == 75 and s["p_value"] == 30.0


def test_benchmark_json_names_what_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(scengen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
