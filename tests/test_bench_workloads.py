"""The benchmark workloads' seed-1 ``embed`` and ``postproc`` artifacts and
their postprocessing reports, pinned byte for byte, and the functions bitbench's tracer wraps or calls.

bitbench times these chains; a speed-up that changed their output would
not be a speed-up of the same computation. A traced function that is
renamed or re-signed would leave its per-layer metrics absent.
"""

import hashlib
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bitcipher

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bitbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_bench_module("workloads")
tracer = _load_bench_module("tracer")

# SHA-256 of emb.txt (rows after --postproc) for seed 1
GOLDEN_EMB_SHA256 = {
    "grammar-sum": "abe34e7ca6f0d5e10903abeb0288fda9"
                   "6cb7a38319eaa5edcff8c57583e466e5",
    "zipf-cat": "384ef104ceb640241c119f399ef7e745"
                "a280ff116a409b3648f481254a0718b4",
}
# SHA-256 of emb.bin, what postproc makes of emb.txt, for seed 1
GOLDEN_BIN_SHA256 = {
    "grammar-sum": "3361513f92b935235f53faf5a306ded3"
                   "eded249c7131ea036acdc9db70a1ca0e",
    "zipf-cat": "26f8bb8b9a6fc8dbd87ec97362fa1c48"
                "4a895dc32ae32c95b94a4be357679621",
}

# SHA-256 of the postprocessing reports (whitening conditions) for seed 1:
# embed --postproc writes emb.txt.report.json, postproc emb.bin.report.json
GOLDEN_REPORT_SHA256 = {
    "grammar-sum": ("17dcc9c9cbcbfc4da12dba4fe3178e3e"
                    "8c274562a36ef1bed25302dd9824db7a",
                    "bfdce881d687b452cd956c0d135bb0c2"
                    "72ddb9916043a92e24a1fc72aad01ac8"),
    "zipf-cat": ("202d2a08b3dba5ce7f6f90332ec78bb2"
                 "9e4c1edf652e1af590676b6855fad4cf",
                 "5757c08df1384ffa0cd899d356a634bd"
                 "b35d1de8412c396097d4e3941341a7ab"),
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
    for _, argv, _ in workload.chain()[:3]:  # count, embed, postproc
        subprocess.run([sys.executable, "-m", "bitcipher.cli", *argv],
                       cwd=tmp_path, env=env, check=True, capture_output=True)

    def digest(artifact):
        return hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()

    assert digest("emb.txt") == GOLDEN_EMB_SHA256[name]
    assert digest("emb.bin") == GOLDEN_BIN_SHA256[name]
    assert (digest("emb.txt.report.json"),
            digest("emb.bin.report.json")) == GOLDEN_REPORT_SHA256[name]


def test_tracer_finds_every_function_it_wraps_or_calls():
    import bitcipher.cli  # noqa: F401  the tracer wraps after this import
    for layer, names in tracer.TARGETS.items():
        module = importlib.import_module(f"bitcipher.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    corpus = importlib.import_module("bitcipher.corpus")
    # run_layers drains stream_tokens and calls count_corpus(path, workers=1)
    assert callable(getattr(corpus, "stream_tokens", None))
    inspect.signature(corpus.count_corpus).bind("corpus.txt", workers=1)
