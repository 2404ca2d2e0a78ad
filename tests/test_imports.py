"""The evaluation path must not import SciPy's optimize package, whose
import costs 0.2-0.3 s in the first process call that reaches it."""

import os
import subprocess
import sys
from pathlib import Path

import effcap

_RUN = """
import sys
from effcap.combiner import CombinerSpec
from effcap.fading import GeneralizedGamma, Nakagami
from effcap.policies import (QosSpec, ec_cifr, ec_opra_chf, ec_opra_mgf,
                             ec_ora, ec_tifr)

qos = QosSpec(0.01)
for spec, route in (
        (CombinerSpec.egc([Nakagami(1.5)] * 2, 1.0), "product"),
        (CombinerSpec.egc([Nakagami(1.5)] * 3, 1.0), "law-ray"),
        (CombinerSpec.af([GeneralizedGamma(2.6, 1.6)] * 2, 1.0), "product"),
        (CombinerSpec.mrc([Nakagami(1.5)] * 2, 1.0), "product"),
        # the Laguerre pairing over real-axis branch MGFs
        (CombinerSpec.mrc([GeneralizedGamma(2.6, 1.2)] * 3, 1.0), "laguerre"),
        # the Kummer pairing reads the branch MGFs' derivative
        (CombinerSpec.af([GeneralizedGamma(2.6, 1.6)] * 3, 1.0), "kummer")):
    assert ec_ora(spec, qos).diagnostics["route"] == route
# real-axis branch MGFs
ec_cifr(CombinerSpec.egc([GeneralizedGamma(2.2, 1.5)] * 2, 1.0), qos)
mrc = CombinerSpec.mrc([Nakagami(1.5)] * 2, 1.0)
diag = ec_opra_chf(mrc, qos).diagnostics
assert diag["cutoff_iterations"] > 0 and diag["cutoff_solver"] == "newton"
af = CombinerSpec.af([Nakagami(1.5)] * 2, 1.0)
assert ec_opra_chf(af, qos).diagnostics["cutoff_solver"] == "newton"
ec_opra_mgf(mrc, qos)
# the TIFR cutoff takes the package's own brentq, on either route
for spec in (mrc, af):
    assert ec_tifr(spec, qos).diagnostics["cutoff_solver"] == "root"
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_policies_do_not_import_scipy_optimize():
    src = str(Path(effcap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _RUN], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.split()
    assert "scipy.special" in loaded  # the run did reach SciPy
    assert not [m for m in loaded if m.startswith("scipy.optimize")]
