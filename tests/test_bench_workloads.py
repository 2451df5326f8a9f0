"""The benchmark workloads' seed-1 ``embed`` artifacts, pinned byte for byte.

bitbench times these chains; a speed-up that changed their output would
not be a speed-up of the same computation.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bitcipher

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", ROOT / "bitbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclasses look their module up
_spec.loader.exec_module(workloads)

# SHA-256 of emb.txt (rows after --postproc) for seed 1
GOLDEN_EMB_SHA256 = {
    "grammar-sum": "abe34e7ca6f0d5e10903abeb0288fda9"
                   "6cb7a38319eaa5edcff8c57583e466e5",
    "zipf-cat": "384ef104ceb640241c119f399ef7e745"
                "a280ff116a409b3648f481254a0718b4",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EMB_SHA256))
def test_workload_embed_rows_match_golden(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    workloads.generate(workload, 1, tmp_path)
    # the benchmark's environment: BLAS pinned to one thread, as whitening
    # sums in a thread-count-dependent order
    src = Path(bitcipher.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for _, argv, _ in workload.chain()[:2]:  # count, embed
        subprocess.run([sys.executable, "-m", "bitcipher.cli", *argv],
                       cwd=tmp_path, env=env, check=True, capture_output=True)
    digest = hashlib.sha256((tmp_path / "emb.txt").read_bytes()).hexdigest()
    assert digest == GOLDEN_EMB_SHA256[name]
