import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_catalog_report_verifies_every_entry():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "catalog_report.py"), "--samples", "20"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    statuses = [line.strip() for line in done.stdout.splitlines() if "verification:" in line]
    assert len(statuses) == 9
    assert all(s.startswith("verification: ok,") for s in statuses), statuses


def test_catalog_report_prints_what_verification_cost():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "catalog_report.py"), "--samples", "5"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    timed = re.compile(r"verification: ok, 6 checks, \d+\.\d\d s \(slowest [a-z-]+ \d+\.\d\d s\)$")
    statuses = [line.strip() for line in done.stdout.splitlines() if "verification:" in line]
    assert len(statuses) == 9
    assert all(timed.match(s) for s in statuses), statuses


def test_radix_sweep_times_both_radices_on_a_small_grid():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "radix_sweep.py"), "--rings", "Z-signed,Z32003"]
        + ["--shorts", "40", "--ratios", "3", "--repeats", "2"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    rows = [line.split() for line in done.stdout.splitlines() if line.startswith(("Z-", "Z3"))]
    assert [row[:3] for row in rows] == [["Z-signed", "40", "120"], ["Z32003", "40", "120"]]
    assert all(row[7] in ("256", "10") for row in rows)
    assert "outputs agree on all 2 products" in done.stdout
