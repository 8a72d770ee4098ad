import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: the demos are seeded, so their text is fixed.
STDOUT_SHA256 = {
    "01_bitmap_support_counting.py": "cba6290c94164ea8b5f61552105ff57184db6feb117ab325d47662501a85cba9",
    "02_sequential_mining.py": "103ec1d51d0f2c193e5307a0e53d94ff7f4b7dddbcc4e94aad16deb22bfa4a35",
    "03_distributed_walkthrough.py": "53bc58cf62d1c47ecda5bf656f4276977902174318e3dadaac0d4963ca80610e",
    "04_protocol_vs_baseline.py": "4f409b2b7a70b05d7a4b6c0fb99464cac6bab9a7821db6e5aa800a5941aa4dc7",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # the demos read the public API (run.sites, scan_counter, metrics
    # fields); each must still run to completion against the package
    out = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
