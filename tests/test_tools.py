"""tools/cli_rows.py: CLI rows as child processes, two checkouts."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_cli_rows_prints_one_row_per_argv():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_rows.py"), str(ROOT),
         str(ROOT), "--rounds", "1", "--", "space", "--n", "4"],
        capture_output=True, text=True, timeout=300, check=True)
    rows = json.loads(run.stdout)
    assert list(rows) == ["space --n 4"]
    row = rows["space --n 4"]
    assert row["stdout_identical"] is True
    for side in ("parent", "change"):
        assert len(row[side]) == len(row[f"{side}_rss_mb"]) == 1
        assert row[side][0] > 0 and row[f"{side}_rss_mb"][0] > 0
        assert row[f"{side}_median"] == row[side][0]


def test_cli_rows_rejects_rounds_below_one():
    # refused before either tree is compiled or run
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_rows.py"), str(ROOT),
         str(ROOT), "--rounds", "0", "--", "space", "--n", "4"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "--rounds must be at least 1" in run.stderr
