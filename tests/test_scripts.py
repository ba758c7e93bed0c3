"""Smoke runs of the scripts under ``scripts/``: each runs from a checkout and
writes or prints what its docstring promises."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from mewvote.bench import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, returncode: int = 0, stream: str = "stdout") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == returncode, proc.stderr
    return getattr(proc, stream)


def test_bench_scaling_quick_writes_the_four_trend_csvs(tmp_path):
    out = run_script("bench_scaling.py", "--quick", "--repeat", "1", "--out-dir", str(tmp_path))
    expected = {"time_vs_voters.csv": 9, "time_vs_candidates.csv": 3,
                "time_vs_cover_width.csv": 4, "time_vs_workers.csv": 4}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, count in expected.items():
        assert f"wrote {tmp_path / name} ({count} rows)" in out
        with open(tmp_path / name, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        assert len(rows) == count
        assert all(row["repeats"] == "1" and float(row["mean_seconds"]) > 0 for row in rows)
    with open(tmp_path / "time_vs_workers.csv", newline="") as fh:
        assert [row["workers"] for row in csv.DictReader(fh)] == ["1", "2", "4", "8"]


def test_mew_vs_mpw_prints_one_row_per_voter_count():
    lines = run_script("mew_vs_mpw.py", "--max-n", "3").splitlines()
    assert lines[0].split() == ["n", "t_mew[s]", "t_mpw[s]", "mpw_states"]
    assert len(lines) == 4
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split()
        assert int(fields[0]) == n
        assert float(fields[1]) >= 0.0 and float(fields[2]) >= 0.0
        assert int(fields[3]) > 1


def test_differential_run_compared_with_itself_is_bit_identical(tmp_path):
    record = tmp_path / "a.json"
    run_script("differential.py", "--quick", "--out", str(record))
    doc = json.loads(record.read_text())
    assert len(doc) == 11 * 2 * 3 * 4 + 4  # kinds, m, seeds, rules; the hand-built error cases
    errors = {run.get("error") for case in doc.values() for run in case.values()}
    assert errors == {None, "CoverWidthExceeded", "Unsupported", "ZeroPosterior", "TooLarge"}
    lines = run_script("differential.py", "--compare", str(record), str(record)).splitlines()
    assert len(lines) == 8 * 5 + 4 + 1  # MEW settings x fields, MPW's fields, inverted intervals
    assert all(line.endswith(" bit-identical") for line in lines[:-1]), lines
    assert lines[-1] == "bounds intervals with lo >= hi: 0 in A, 0 in B"

    # a changed winner set fails the comparison
    case = doc[next(iter(doc))]["mew pruning=True grouping=True"]
    case["winners"] = case["winners"][1:] if len(case["winners"]) > 1 else ["c9"]
    changed = tmp_path / "b.json"
    changed.write_text(json.dumps(doc))
    out = run_script("differential.py", "--compare", str(record), str(changed), returncode=1)
    assert "mew pruning=True grouping=True     winners  DIFFERS in 1 cases" in out

    # both row records are compared: the per-candidate rows and one list call's rows,
    # which are equal in every case
    rows = [case["rows"] for case in doc.values() if "rows" in case]
    assert len(rows) == 11 * 2 * 3 + 4 and all(r["lists"] == r["voters"] for r in rows)
    err = run_script("differential.py", "--compare", str(record), str(record), stream="stderr")
    assert err.splitlines() == [f"{'rep_dispatch rows':34} bit-identical",
                                f"{'rep_dispatch list rows':34} bit-identical"]
    row = next(r["lists"] for r in rows if not isinstance(r["lists"][0], str))[0][0]
    row[0] = float.hex(float.fromhex(row[0]) + 0.5)
    changed.write_text(json.dumps(doc))  # the changed winner set still fails it
    err = run_script("differential.py", "--compare", str(record), str(changed), returncode=1,
                     stream="stderr")
    assert f"{'rep_dispatch rows':34} bit-identical" in err
    assert f"{'rep_dispatch list rows':34} largest difference 0.5" in err
