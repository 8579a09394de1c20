"""Regenerate the references tests/test_references.py pins.

For each shipped scenario the references hold its solve tables (center,
det2 and residuals whole, each slice table every SLICE_STRIDE-th row)
and the exit code, stdout, stderr and warnings of `solve`,
`study --levels 3` and `verify`; for the seed-3 nls2x2_study benchmark
scenario, those of `study --levels 3`.  Every command runs in this
process at one thread:

    PYTHONPATH=src python tests/make_references.py

The script prints, per table, "identical" when its bytes equal the
reference it replaces, else the largest move against that reference as
a share of the table's largest |entry|, and whether each command's
output changed.  A change that moves a reference says in
CHANGES.md what moved, by how much and why.
"""

import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from hankelpde.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
BENCH_STUDY = REFERENCES / "nls2x2_study_seed3.yaml"
SLICE_STRIDE = 16
# largest move per table as a share of its largest |entry|; residuals.tsv
# holds finite-difference stencils of the centre, which amplify its
# round-off
TOLERANCE = {"residuals.tsv": 1e-10}
DEFAULT_TOLERANCE = 1e-13
_KEYS = ("x", "t", "xi")


def cases():
    """(name, scenario path, commands) of each pinned case."""
    shipped = [(path.stem, path, ("solve", "study", "verify"))
               for path in sorted((ROOT / "scenarios").glob("*.yaml"))]
    return shipped + [(BENCH_STUDY.stem, BENCH_STUDY, ("study",))]


def _command(argv):
    """What cli.main(argv) returns, prints and warns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": [str(w.message) for w in caught]}


def outputs(path, commands, threads, out_dir):
    """{file name: text} of a case run at threads: the tables solve
    writes to out_dir, each slice table cut to every SLICE_STRIDE-th
    row, and commands.json, what each command returned and printed."""
    record = {}
    for command in commands:
        argv = [command, str(path)]
        if command == "solve":
            argv += ["--out", str(out_dir)]
        if command == "study":
            argv += ["--levels", "3"]
        if command != "verify":
            argv += ["--threads", str(threads)]
        record[command] = _command(argv)
    files = {"commands.json": json.dumps(record, indent=1, sort_keys=True) + "\n"}
    if "solve" in commands:
        for table in sorted(Path(out_dir).glob("*.tsv")):
            text = table.read_text()
            if table.name.startswith("slice_"):
                header, *rows = text.splitlines(keepends=True)
                text = header + "".join(rows[::SLICE_STRIDE])
            files[table.name] = text
    return files


def _split(text):
    """(header, names, keys, values) of a table: its header cells, the
    equation names of residuals.tsv, the x, t and xi columns, and the
    other numbers."""
    header, *lines = [line.split("\t") for line in text.splitlines()]
    named = header[0] == "equation"
    names = [row[0] for row in lines] if named else []
    numbers = np.array([[float(c) for c in row[named:]] for row in lines], ndmin=2)
    key = np.array([h in _KEYS for h in header[named:]])
    return header, names, numbers[:, key], numbers[:, ~key]


def largest_move(want, got):
    """The largest |got - want| over the values of two tables as a share
    of want's largest |entry|; headers, equation names, the x, t and xi
    columns, the table's shape and where it holds NaN must agree
    exactly."""
    (h0, n0, k0, v0), (h1, n1, k1, v1) = _split(want), _split(got)
    assert (h1, n1) == (h0, n0)
    assert k1.shape == k0.shape and np.array_equal(k1, k0)
    assert v1.shape == v0.shape and np.array_equal(np.isnan(v1), np.isnan(v0))
    finite = ~np.isnan(v0)
    if not finite.any():
        return 0.0
    move = float(np.abs(v1[finite] - v0[finite]).max(initial=0.0))
    scale = float(np.abs(v0[finite]).max())
    return move / scale if scale else (0.0 if move == 0.0 else float("inf"))


def tolerance(name):
    return TOLERANCE.get(name, DEFAULT_TOLERANCE)


def _bench_study_text():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import scengen

    return scengen.scenario_text("nls2x2_study", 3)


def change(old, text):
    """What replacing the reference file old by text changes: "new",
    "identical" or "unchanged" bytes, a table's largest move, or
    "changed" command output."""
    if not old.exists():
        return "new"
    if old.read_bytes() == text.encode():
        return "identical" if old.suffix == ".tsv" else "unchanged"
    if old.suffix == ".tsv":
        return "largest move %.3g" % largest_move(old.read_text(), text)
    return "changed"


def regenerate():
    REFERENCES.mkdir(exist_ok=True)
    BENCH_STUDY.write_text(_bench_study_text())
    for name, path, commands in cases():
        with tempfile.TemporaryDirectory() as tmp:
            files = outputs(path, commands, 1, tmp)
        folder = REFERENCES / name
        folder.mkdir(exist_ok=True)
        for fname, text in files.items():
            print("%-22s %-16s %s" % (name, fname, change(folder / fname, text)))
            (folder / fname).write_text(text)
        for stale in sorted(set(p.name for p in folder.iterdir()) - set(files)):
            print("%-22s %-16s removed" % (name, stale))
            (folder / stale).unlink()


if __name__ == "__main__":
    regenerate()
