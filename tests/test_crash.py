"""A command killed anywhere leaves no half-written artifact: each command
that forks a second process is SIGKILLed at points spread over one run of
it, over the outputs of an earlier complete run."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bitcipher
from bitcipher import corpus, embedio
from bitcipher.embedio import OOV_TOKEN, write_embeddings_text
from bitcipher.manifest import sha256_file
from bitcipher.synth import generate_tagged_sentences, sentences_to_text

KILLS = 16


def _count(tmp_path):
    """count over a plain corpus large enough to be counted in halves."""
    path = tmp_path / "corpus.txt"
    path.write_text(sentences_to_text(generate_tagged_sentences(60_000)))
    assert path.stat().st_size >= corpus._SPLIT_BYTES
    out = tmp_path / "freq.tsv"
    return ["count", path, "--out", out], [out]


def _postproc(tmp_path):
    """postproc writing a text file large enough to be written in halves."""
    rows = np.random.default_rng(5).normal(size=(2_000, 50))
    assert rows.size >= embedio._SPLIT_VALUES
    path = tmp_path / "emb.txt"
    write_embeddings_text(rows, [f"t{i}" for i in range(1_999)] + [OOV_TOKEN],
                          path)
    out = tmp_path / "post.txt"
    return (["postproc", path, "--out", out, "--format", "text"],
            [out, Path(f"{out}.report.json")])


COMMANDS = {"count": _count, "postproc": _postproc}


def _start(argv):
    """The CLI in a fresh interpreter, leading its own process group."""
    src = str(Path(bitcipher.__file__).resolve().parent.parent)
    return subprocess.Popen(
        [sys.executable, "-m", "bitcipher.cli", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _group_runs(pgid):
    """Whether a process of group ``pgid`` still runs; a zombie, which only
    its reaper can end, does not."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):  # the process ended meanwhile
            continue
        if int(group) == pgid and state != "Z":
            return True
    return False


def _check_tree(directory, whole, when):
    """Every manifest matches each file it names, and every output present
    holds the bytes of the complete run."""
    for manifest in directory.glob("*.manifest.json"):
        record = json.loads(manifest.read_text())
        for entry in (*record["inputs"].values(),
                      *record["outputs"].values()):
            assert sha256_file(entry["path"]) == entry["sha256"], when
    for path, data in whole.items():
        if path.exists():
            assert path.read_bytes() == data, (when, path)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads the state of a process group from /proc")
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_killed_command_leaves_no_half_written_artifact(tmp_path, command):
    argv, outputs = COMMANDS[command](tmp_path)
    started = time.perf_counter()
    assert _start(argv).wait() == 0
    wall = time.perf_counter() - started
    whole = {path: path.read_bytes() for path in outputs}
    for i in range(KILLS):
        run = _start(argv)
        try:
            time.sleep(wall * (i + 0.5) / KILLS)
            run.kill()
            run.wait()
            # the orphaned child leaves at its next check of its parent
            deadline = time.monotonic() + 10
            while _group_runs(run.pid):
                assert time.monotonic() < deadline, "a child outlived a kill"
                time.sleep(0.005)
        except BaseException:
            os.killpg(run.pid, signal.SIGKILL)
            raise
        _check_tree(tmp_path, whole, f"kill {i} at {i + 0.5}/{KILLS}")
    assert _start(argv).wait() == 0
    _check_tree(tmp_path, whole, "after the kills")
    assert all(path.exists() for path in outputs)
    # publish removed the temporary files of the killed runs
    assert not list(tmp_path.glob(".*.tmp"))
