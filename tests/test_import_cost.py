"""`import switchwork` loads numpy and scipy.linalg only: scipy.stats and
scipy.optimize, which cost about 0.7 s at start-up, are imported where a
call needs them, not by the package."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROGRAM = """
import json, sys
import numpy as np
import switchwork, switchwork.cli
loaded = sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)
from switchwork import DensityMatrix, HermitianOperator, ergotropy_gibbs_bound
rho = DensityMatrix(np.array([[0.5, 0.1j, 0.05], [-0.1j, 0.3, 0.0], [0.05, 0.0, 0.2]]))
bound = ergotropy_gibbs_bound(rho, HermitianOperator(np.diag([0.0, 1.0, 2.5])))
print(json.dumps({"loaded": loaded, "bound": repr(bound)}))
"""


def test_package_import_leaves_out_scipy_stats_and_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _PROGRAM], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(out.stdout)
    assert result["loaded"] == []
    # brentq is imported at its call, and the bound keeps its bits.
    assert result["bound"] == (
        "GibbsBoundResult(bound=0.08406977230207668, beta_star=0.4781601035383246, "
        "converged=True, entropy_residual=0.0)"
    )
