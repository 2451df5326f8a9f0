"""count on two cores: a forked process counts the lines from the first one
that starts at or after the middle byte, and the table is one process's."""

import gzip
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import bitcipher
from bitcipher import corpus
from bitcipher.cli import main
from bitcipher.corpus import (TokenizerConfig, count_corpus,
                              count_frequencies, stream_documents)
from bitcipher.synth import generate_tagged_sentences, sentences_to_text

# the text writer's fork fixtures: no child is left to reap after a test,
# and ``forks`` gives the process two CPUs and records each fork
from test_embedio import _gone, forks, no_child_left  # noqa: F401


@pytest.fixture
def split(monkeypatch, forks):
    """Split every corpus of two bytes or more."""
    monkeypatch.setattr(corpus, "_SPLIT_BYTES", 0)
    return forks


@pytest.fixture
def temp_dir(tmp_path, monkeypatch):
    """The directory the child's temporary file goes to."""
    path = tmp_path / "tmp"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


def _one_process(path, config=TokenizerConfig()):
    return count_frequencies(stream_documents(path, config))


CORPORA = {
    "no trailing newline": b"a b c\nd e, f\ng h",
    "empty lines": b"a b\n\n\nc d\n\n\ne f a\n\n",
    "crlf": b"a, b\r\nc d!\r\n\r\ne f\r\nb a\r\n",
    "non-ascii": "größe über\nnaïve café ☕\nélan größe\n日本 語\n".encode(),
    # the middle byte (103) is inside the long line, which the parent counts
    "one line spans the middle": b"x\n" + b"long line " * 20 + b"\nz x\n",
    "one line": b"only one line, and no newline",
    # the middle byte (5) starts the second line, which the child counts
    "middle on a line start": b"ab c\nde f\n",
}


@pytest.mark.parametrize("name", CORPORA)
def test_split_count_matches_one_process(tmp_path, split, temp_dir, name):
    path = tmp_path / "corpus.txt"
    path.write_bytes(CORPORA[name])
    assert count_corpus(path) == _one_process(path)
    assert split == [os.getpid()]
    assert list(temp_dir.iterdir()) == []


@pytest.mark.parametrize("flags", [[], ["--no-lowercase", "--no-split-punct"]])
def test_split_count_writes_one_process_bytes(tmp_path, monkeypatch, forks,
                                              flags):
    path = tmp_path / "corpus.txt"
    path.write_text(sentences_to_text(generate_tagged_sentences(8_000, seed=3))
                    * 7, encoding="utf-8")
    assert path.stat().st_size >= corpus._SPLIT_BYTES
    out = tmp_path / "freq.tsv"
    manifest = Path(f"{out}.manifest.json")

    def count():
        assert main(["count", str(path), "--out", str(out), *flags]) == 0
        return out.read_bytes(), manifest.read_bytes()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_second_cpu", lambda: False)
        want = count()
    assert not forks
    assert count() == want
    assert forks == [os.getpid()]


@pytest.mark.parametrize("halves", ["second", "both"])
def test_invalid_utf8_in_a_half_exits_2_as_one_process(
        tmp_path, monkeypatch, capsys, split, temp_dir, halves):
    text = bytearray(b"a b\n" * 50 + b"c d\n" * 50)
    text[300:301] = b"\xff"
    if halves == "both":
        text[100:101] = b"\xfe"
    path = tmp_path / "corpus.txt"
    path.write_bytes(bytes(text))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["count", str(path), "--out", str(out_dir / "freq.tsv")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_second_cpu", lambda: False)
        assert main(argv) == 2
    want = capsys.readouterr().err
    offset = 300 if halves == "second" else 100
    assert want == f"error: {path}: invalid UTF-8 at byte offset {offset}\n"
    assert main(argv) == 2
    assert capsys.readouterr().err == want
    assert split == [os.getpid()]
    assert list(out_dir.iterdir()) == []
    assert list(temp_dir.iterdir()) == []


def test_dead_child_exits_2_naming_the_corpus_and_its_bytes(
        tmp_path, monkeypatch, capsys, split, temp_dir):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"a b c\n" * 100)
    count, pid = corpus.count_frequencies, os.getpid()

    def child_dies(documents):
        if os.getpid() != pid:
            os._exit(3)
        return count(documents)

    monkeypatch.setattr(corpus, "count_frequencies", child_dies)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["count", str(path), "--out", str(out_dir / "freq.tsv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: the process counting bytes 300 to 599 failed "
        "(exit status 3)\n")
    assert split == [pid]
    assert list(out_dir.iterdir()) == []
    assert list(temp_dir.iterdir()) == []


@pytest.mark.parametrize("case", ["gzip", "blank", "below the threshold",
                                  "one cpu", "fork", "sched_getaffinity"])
def test_count_stays_in_one_process(tmp_path, monkeypatch, case):
    text = b"a b c\nd e\n\nf a\n" * 10
    path = tmp_path / "corpus.txt"
    path.write_bytes(gzip.compress(text) if case == "gzip" else text)
    config = TokenizerConfig(doc_boundary="blank" if case == "blank"
                             else "line")
    if case != "below the threshold":
        monkeypatch.setattr(corpus, "_SPLIT_BYTES", 0)
    if case in ("fork", "sched_getaffinity"):
        monkeypatch.delattr(os, case, raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if case == "one cpu" else {0, 1},
                            raising=False)
    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", pytest.fail)
    assert count_corpus(path, config) == _one_process(path, config)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads a process's state from /proc")
def test_split_count_child_leaves_once_its_parent_is_killed(tmp_path):
    # every document takes BLOCK_S to tokenize and the child checks its
    # parent after each one, so its 30 lines would take 15 s; the parent
    # prints the child's pid
    block_s = 0.5
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"a b\n" * 60)
    code = ("import os, sys, time\n"
            "from bitcipher import corpus\n"
            "corpus._SPLIT_BYTES = 0\n"
            "corpus._CHILD_BLOCK_DOCS = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, tokenize = os.fork, corpus.tokenize_line\n"
            "def telling_fork():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "def slow_tokenize(*args):\n"
            f"    time.sleep({block_s})\n"
            "    return tokenize(*args)\n"
            "os.fork, corpus.tokenize_line = telling_fork, slow_tokenize\n"
            "corpus.count_corpus(sys.argv[1])\n")
    src = str(Path(bitcipher.__file__).resolve().parent.parent)
    parent = subprocess.Popen([sys.executable, "-c", code, str(path)],
                              env=dict(os.environ, PYTHONPATH=src),
                              stdout=subprocess.PIPE, text=True)
    child = None
    try:
        child = int(parent.stdout.readline())
        time.sleep(block_s)  # mid-count
        assert not _gone(child)
        parent.kill()
        parent.wait()
        killed = time.perf_counter()
        while not _gone(child) and time.perf_counter() - killed < 10:
            time.sleep(0.02)
        # one block, and slack for a loaded host
        assert time.perf_counter() - killed < block_s + 2.5
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        if child is not None and not _gone(child):
            os.kill(child, signal.SIGKILL)
