import json

import pytest

from make_references import REFERENCES, cases, change, largest_move, outputs, tolerance

CASES = cases()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name, path, commands", CASES, ids=[c[0] for c in CASES])
def test_each_scenario_computes_what_its_references_pin(tmp_path, name, path, commands,
                                                        threads):
    # every table the references hold, to its tolerance of the table's
    # largest |entry|, and each command's exit code, stdout, stderr and
    # warnings exactly, at one thread and at two; after an intended
    # change, tests/make_references.py regenerates the references
    folder = REFERENCES / name
    got = outputs(path, commands, threads, tmp_path)
    assert sorted(got) == sorted(p.name for p in folder.iterdir())
    assert json.loads(got.pop("commands.json")) == json.loads(
        (folder / "commands.json").read_text())
    for fname, text in got.items():
        assert largest_move((folder / fname).read_text(), text) <= tolerance(fname), fname


def test_a_moved_entry_is_measured_against_the_largest():
    want = "x\tt\tre_g00\tim_g00\n0\t1\t2\t-4\n1\t1\tnan\t0.5\n"
    assert largest_move(want, want) == 0.0
    assert largest_move(want, want.replace("0.5", "0.5004")) == pytest.approx(1e-4)
    for broken in (want.replace("nan", "3"), want.replace("1\t1", "1\t2"),
                   want.replace("re_g00", "re_g01"), want + "2\t1\t0\t0\n"):
        with pytest.raises(AssertionError):
            largest_move(want, broken)
    residuals = "equation\tmax\tl2\nlocal_nls\t0.5\t0.25\n"
    assert largest_move(residuals, residuals.replace("0.25", "0.3")) == pytest.approx(0.1)
    with pytest.raises(AssertionError):
        largest_move(residuals, residuals.replace("local_nls", "local_mkdv"))


def test_regenerating_tells_identical_bytes_from_equal_values(tmp_path):
    # "largest move 0" is equal values; only equal bytes are identical
    table = tmp_path / "center.tsv"
    table.write_text("x\tt\tre_g00\n0\t1\t2\n")
    assert change(tmp_path / "det2.tsv", "x\n") == "new"
    assert change(table, table.read_text()) == "identical"
    assert change(table, "x\tt\tre_g00\n0\t1\t2.0\n") == "largest move 0"
    assert change(table, "x\tt\tre_g00\n0\t1\t3\n") == "largest move 0.5"
    record = tmp_path / "commands.json"
    record.write_text("{}\n")
    assert change(record, "{}\n") == "unchanged"
    assert change(record, "{\"solve\": 0}\n") == "changed"
