"""The library runs on numpy alone.  `import switchwork` loads no scipy
module, and neither does building and reporting a Fock scenario or a random
passive one, `run_verify("quick")` or `ergotropy_gibbs_bound`: positivity is
certified with numpy's Cholesky, D(alpha), S(z) come from numpy SVDs, qmat
imports no scipy at all, verify's Nelder-Mead is the package's own, and the
entropy-matched bound bisects on log beta.  With scipy made unimportable,
`verify`, a sweep point, a `minimize` call and the bound still run."""
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
from switchwork import DensityMatrix, HermitianOperator, ergotropy_gibbs_bound
rho = DensityMatrix(np.array([[0.5, 0.1j, 0.05], [-0.1j, 0.3, 0.0], [0.05, 0.0, 0.2]]))
bound = ergotropy_gibbs_bound(rho, HermitianOperator(np.diag([0.0, 1.0, 2.5])))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"loaded": loaded, "bound": repr(bound)}))
"""

_BLOCKED = """
import sys
sys.modules["scipy"] = None  # every `import scipy...` now raises ImportError
import numpy as np
from switchwork import DensityMatrix, HermitianOperator, ergotropy_gibbs_bound
from switchwork.cli import run_minimize, run_sweep
from switchwork.config import parse_config
from switchwork.verifysuite import run_verify
assert run_verify("quick").passed
header, rows = run_sweep(parse_config('''
kind = fock
family = disp_squeeze
omega = 1.0
beta = 1.0
alpha_abs = 1.0
alpha_phase = 0.9
z_abs = 0.5
z_phase = 0.4
t_abs = 0.5
t_phase = 0.0
control_theta = 1.5707963267948966
control_phi = 0.0
measure_theta = 1.5707963267948966
measure_phi = 3.141592653589793
'''))
assert len(rows) == 1
report = run_minimize(parse_config('''
kind = qubit
family = u2
omega = 1.0
beta = 0.0
u1_alpha = 0.3
u1_lam = 1.0
u1_gamma = 2.0
u1_delta = 0.1
u2_alpha = 0.9
u2_lam = 0.2
u2_gamma = 1.4
u2_delta = 2.2
t_abs = 1.0
t_phase = 0.0
control_theta = 1.5707963267948966
control_phi = 0.0
budget = 1000
'''))
assert "min_value = " in report
assert "multiprocessing" not in sys.modules
rho = DensityMatrix(np.diag([0.6, 0.3, 0.1]).astype(complex))
assert ergotropy_gibbs_bound(rho, HermitianOperator(np.diag([0.0, 1.0, 2.0]))).converged
print("ok")
"""


def _run(program: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_package_import_and_reports_load_no_scipy_module():
    result = json.loads(_run(_PROGRAM))
    assert result["loaded"] == []
    # The bound keeps the bits of its bisection's root.
    assert result["bound"] == (
        "GibbsBoundResult(bound=0.08406977230207646, beta_star=0.47816010353832433, "
        "converged=True, entropy_residual=1.1102230246251565e-16)"
    )


def test_verify_sweep_minimize_and_bound_run_with_scipy_blocked():
    assert _run(_BLOCKED) == "ok\n"
