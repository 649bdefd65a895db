"""Import footprint: an rmpoly process loads numpy (and click) and nothing
heavier.

scipy holds about 20 MB of resident memory and a third of a second of
start-up, and no pipeline needs it; ``concurrent.futures.process`` is
needed only by a run on a worker pool.  Each case runs in a fresh
interpreter, because the test process itself has imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_HEAVY = """
def heavy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.")
                  or m == "concurrent.futures.process")
"""

_PIPELINES = """
import json, sys
from pathlib import Path
import rmpoly
from rmpoly import (ExperimentConfig, RngStream, cli, finite_eigenvalues,
                    matpoly, run_grow_k, run_grow_n, run_verification,
                    sample_monic_gaussian)
""" + _HEAVY + """
# The benchmark's set-up probe.
finite_eigenvalues(sample_monic_gaussian(4, 2, RngStream(1)))
after_import = heavy()

aberth_calls = []
aberth = matpoly._aberth_eigenvalues
matpoly._aberth_eigenvalues = lambda c: aberth_calls.append(1) or aberth(c)
run_grow_n(ExperimentConfig(regime="grow-n", n_values=(4,), k_values=(2,),
                            target_points=64))
run_grow_k(ExperimentConfig(regime="grow-k", n_values=(1,),
                            k_values=(128,), target_points=128))
run_verification(ExperimentConfig(regime="grow-n", n_values=(4,),
                                  k_values=(2,)),
                 suite_trials=2, deterministic_instances=5, mc_trials=200)
cli.main.main(["--quiet", "experiment", "--regime", "grow-n", "--n", "4",
               "--k", "2", "--target-points", "64", "--format", "svg",
               "--out", sys.argv[1]], standalone_mode=False)
svgs = sorted(p.name for p in Path(sys.argv[1]).glob("*.svg"))
print(json.dumps({"after_import": after_import, "after_runs": heavy(),
                  "aberth_calls": len(aberth_calls), "svgs": svgs}))
"""

_FALLBACK = """
import json, sys
import numpy as np
from rmpoly import RngStream, complex_gaussian, singular_values
""" + _HEAVY + """
stack = complex_gaussian(RngStream(5), (3, 6, 4))
expected = singular_values(stack)
before = heavy()

def no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")
np.linalg.svd = no_convergence
got = singular_values(stack)
print(json.dumps({"before": before, "after": heavy(),
                  "error": float(np.max(np.abs(got - expected)
                                        / expected[:, :1]))}))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_pipelines_load_neither_scipy_nor_a_process_pool(tmp_path):
    out = _run(_PIPELINES, str(tmp_path))
    assert out["after_import"] == []
    assert out["after_runs"] == []
    # The grow-k cell took the Ehrlich-Aberth route, the experiment
    # rendered its scatter.
    assert out["aberth_calls"] > 0
    assert out["svgs"] == ["scatter_grow-n_n4_k2_seed7.svg"]


def test_gesvd_fallback_loads_scipy_linalg_on_demand():
    out = _run(_FALLBACK)
    assert out["before"] == []
    assert "scipy.linalg" in out["after"]
    assert out["error"] <= 1e-13


_PROBE = """
import json, sys
import rmpoly

def loaded():
    return sorted(m for m in sys.modules
                  if m == "rmpoly" or m.startswith("rmpoly."))
bare = loaded()
# The benchmark's set-up probe.
rmpoly.finite_eigenvalues(rmpoly.sample_monic_gaussian(4, 2,
                                                       rmpoly.RngStream(1)))
print(json.dumps({"bare": bare, "probe": loaded(),
                  "others": [m for m in ("logging", "click")
                             if m in sys.modules]}))
"""


def test_probe_loads_only_the_solver_layer():
    # A submodule loads on first use of one of its names.
    out = _run(_PROBE)
    assert out["bare"] == ["rmpoly"]
    assert out["probe"] == ["rmpoly", "rmpoly.errors", "rmpoly.linalg",
                            "rmpoly.matpoly", "rmpoly.tolerances"]
    assert out["others"] == []


_STREAMS = """
import json, sys
from rmpoly.matpoly import RngStream, complex_gaussian

stream = RngStream(7).child(1)
before = "numpy.random" in sys.modules
complex_gaussian(stream, (2,))
print(json.dumps({"before": before, "after": "numpy.random" in sys.modules}))
"""


def test_streams_load_numpy_random_on_the_first_draw():
    # Loaded at import, numpy.random costs about 0.5 MB of resident memory.
    out = _run(_STREAMS)
    assert out == {"before": False, "after": True}


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "user-set"])
def test_blas_runs_one_thread_unless_the_user_set_a_count(preset):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = ("import json, os, rmpoly, numpy\n"
              f"print(json.dumps({{v: os.environ[v] for v in {_BLAS_VARS}}}))")
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {"OPENBLAS_NUM_THREADS": preset or "1",
                                      "OMP_NUM_THREADS": "1",
                                      "MKL_NUM_THREADS": "1"}
