"""The example scripts run end to end on tiny inputs."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    result = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_run_probe_experiment_small():
    out = _run("run_probe_experiment.py", "--tokens", "5000",
               "--train-tokens", "500", "--epochs", "2", "--hidden", "16")
    assert "embeddings: " in out
    assert " cipher: " in out and " random: " in out
    assert "margin: " in out


def test_print_cipher_table_small():
    lines = _run("print_cipher_table.py", "--bits", "4").splitlines()
    assert lines[0].startswith("rank  bits")
    assert len(lines) == 1 + 15  # header plus 2^4 - 1 ranks
    assert lines[1].split()[:2] == ["1", "1000"]
