"""`import switchwork` loads no scipy module, and neither does building and
reporting a Fock scenario or a random passive one, nor `run_verify("quick")`:
positivity is certified with numpy's Cholesky, D(alpha), S(z) come from
numpy SVDs, qmat imports no scipy at all, and verify's Nelder-Mead is the
package's own.  scipy (scipy.linalg alone costs about 0.25 s and
22 MB at start-up) is imported only at the calls that need it, such as the
brentq root find of `ergotropy_gibbs_bound`."""
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
from switchwork import cvcase, switchcore, verifysuite
from switchwork.states import BlochState
s = cvcase.disp_squeeze_scenario(
    1.0, 1.0, 0.5, 0.3, cvcase.DisplacementParams(1.0, 0.9), cvcase.SqueezeParams(0.5, 0.4),
    BlochState(np.pi / 2, 0.0), n_max=40,
)
switchcore.activation_report(s)
switchcore.measure_control(s, BlochState(np.pi / 2, np.pi))
switchcore.activation_report(verifysuite.random_passive_scenario(np.random.default_rng(0)))
assert verifysuite.run_verify("quick").passed
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
from switchwork import DensityMatrix, HermitianOperator, ergotropy_gibbs_bound
rho = DensityMatrix(np.array([[0.5, 0.1j, 0.05], [-0.1j, 0.3, 0.0], [0.05, 0.0, 0.2]]))
bound = ergotropy_gibbs_bound(rho, HermitianOperator(np.diag([0.0, 1.0, 2.5])))
print(json.dumps({"loaded": loaded, "bound": repr(bound)}))
"""


def test_package_import_and_reports_load_no_scipy_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _PROGRAM], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(out.stdout)
    assert result["loaded"] == []
    # brentq is imported at its call, after the check above, and the bound
    # keeps its bits.
    assert result["bound"] == (
        "GibbsBoundResult(bound=0.08406977230207668, beta_star=0.4781601035383246, "
        "converged=True, entropy_residual=0.0)"
    )
