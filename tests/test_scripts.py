"""Smoke tests: each experiment script runs to completion and prints a known row."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def rows(lines):
    """Table rows as token lists, without the trailing time column."""
    return [line.split()[:-1] for line in lines[1:]]


@pytest.mark.parametrize(
    "name,args,row",
    [
        # n, family, rhs, max_lhs, valid, support, lp(c), min_coil, lp_support
        ("verify_families.py", ["--max-n", "14"],
         ["14", "t1", "1", "0", "true", "8", "infeas", "9", "135"]),
        # n, n%8, c=n/2, min, max, c in range
        ("coil_intervals.py", ["--max-n", "10"], ["6", "6", "3", "5", "5", "false"]),
    ],
)
def test_table_script(name, args, row):
    assert row in rows(run_script(name, *args))


def test_verify_families_whole_table():
    lines = run_script("verify_families.py", "--max-n", "30")
    assert lines[0].split() == ["n", "family", "rhs", "max_lhs", "valid", "support",
                                "lp(c)", "min_coil", "lp_support", "time"]
    assert rows(lines) == [
        ["4", "t2", "1", "0", "true", "5", "infeas", "4", "4"],
        ["6", "t1", "1", "0", "true", "4", "infeas", "5", "9"],
        ["12", "t2", "1", "0", "true", "25", "infeas", "8", "100"],
        ["14", "t1", "1", "0", "true", "8", "infeas", "9", "135"],
        ["20", "t2", "1", "0", "true", "61", "infeas", "12", "286"],
        ["22", "t1", "1", "0", "true", "12", "infeas", "13", "345"],
        ["28", "t2", "1", "0", "true", "113", "infeas", "16", "568"],
        ["30", "t1", "1", "0", "true", "16", "infeas", "17", "651"],
    ]


def test_search_tours():
    lines = run_script("search_tours.py", "--n", "4", "--budget", "1000")
    assert lines[0] == "n=4: coil interval [4, 4]"
    assert any(line.startswith("  coil=   4: not found (space exhausted") for line in lines)
