"""Every demo runs to completion: the Max-IP index, the benchmark harness,
the online matchers, the distance and inner-product sketch banks, the
combinatorial oracles and the weighted sampler.

Each demo runs in its own interpreter, as a user would start it, with this
checkout's src/ first on the import path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["demo_maxip_search.py", "demo_benchmark_reports.py",
                                  "demo_online_matching.py",
                                  "demo_distance_sketch.py",
                                  "demo_inner_product_sketch.py",
                                  "demo_combinatorial_oracles.py",
                                  "demo_weighted_sampler.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
