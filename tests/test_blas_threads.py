"""Outputs must not depend on how many threads BLAS runs.

OpenBLAS splits long reductions across its threads, and the split changes
the rounding, so a sum computed by BLAS can differ in the last bit between
one and two threads.  The thread count is fixed when the library loads, so
each count runs in its own interpreter, on a tensor large enough for
OpenBLAS to use more than one thread.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints one SHA-256 over the MAP fit, the Gibbs chain, its predictive scores
# over all pairs under both links and an evaluate CSV (the per-slice baseline
# included) on a fully observed 104 x 104 x 26 tensor (the kinship data's
# shape), and over Gibbs chains and 2-iteration logistic MAP fits on the same
# shape at 50% of entries, whose partial fibers take the entry masks (K = T),
# and at 5%, which takes the coordinate form and its row loop.
SCRIPT = """
import hashlib, sys
from pathlib import Path
import numpy as np
from linkpattern.cli import main
from linkpattern.gibbs import ChainConfig, HyperPriors, predictive_scores, run_chain
from linkpattern.io import SynthSpec, generate_synthetic, save_triples
from linkpattern.model import ModelConfig, log_likelihood
from linkpattern.optimize import MapConfig, fit_map

work = Path(sys.argv[1])
tensor, _truth = generate_synthetic(SynthSpec(104, 26, 11, seed=3))
digest = hashlib.sha256()
for use_logistic in (True, False):
    factors, trace = fit_map(tensor, ModelConfig(11, use_logistic=use_logistic),
                             MapConfig(max_iterations=2, seed=1))
    for values in (factors.U, factors.V, factors.R, trace.objectives,
                   trace.gradient_norms, trace.step_sizes):
        digest.update(np.asarray(values).tobytes())
identity = ModelConfig(11, use_logistic=False)
samples = run_chain(tensor, identity, HyperPriors.default(11),
                    ChainConfig(num_samples=2, burn_in=0, seed=1))
for draw in samples.draws:
    for values in (draw.U, draw.V, draw.R, [draw.alpha, log_likelihood(draw, tensor, identity)]):
        digest.update(np.asarray(values).tobytes())
digest.update(np.asarray(samples.log_likelihoods).tobytes())
for fraction in (0.5, 0.05):
    partial, _truth = generate_synthetic(SynthSpec(104, 26, 11, observed_fraction=fraction,
                                                   seed=4))
    for draw in run_chain(partial, identity, HyperPriors.default(11),
                          ChainConfig(num_samples=2, burn_in=0, seed=1)).draws:
        for values in (draw.U, draw.V, draw.R, [draw.alpha]):
            digest.update(np.asarray(values).tobytes())
    factors, trace = fit_map(partial, ModelConfig(11), MapConfig(max_iterations=2, seed=1))
    for values in (factors.U, factors.V, factors.R, trace.objectives, trace.gradient_norms):
        digest.update(np.asarray(values).tobytes())
ii, jj, tt = (axis.ravel() for axis in np.indices((104, 104, 26)))
for use_logistic in (True, False):
    digest.update(predictive_scores(samples, ii, jj, tt,
                                    ModelConfig(11, use_logistic=use_logistic)).tobytes())
save_triples(tensor, work / "data.tsv")
code = main(["evaluate", "--input", str(work / "data.tsv"), "--out", str(work / "grid.csv"),
             "--methods", "pltf,hb-r,hb-t,baseline", "--rank", "11", "--repeats", "1",
             "--max-iterations", "2", "--samples", "3", "--burn-in", "1", "--seed", "2"])
assert code == 0, code
digest.update((work / "grid.csv").read_bytes())
print(digest.hexdigest())
"""


def run_with_threads(threads, work):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    work.mkdir()
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(work)], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()[-1]


def test_outputs_independent_of_blas_threads(tmp_path):
    assert run_with_threads(1, tmp_path / "one") == run_with_threads(2, tmp_path / "two")
