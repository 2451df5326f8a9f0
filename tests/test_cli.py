import errno
import gzip
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bitcipher
from bitcipher import cli
from bitcipher.cipher import build_cipher, save_cipher
from bitcipher.cli import main
from bitcipher.embedio import (OOV_TOKEN, read_embeddings,
                               read_embeddings_text, write_embeddings_binary,
                               write_embeddings_text)

CORPUS = """\
the cat sat on the mat .
the dog sat on the log .
a cat saw the dog run !
the bird flew over the log .
"""

CONLL = """\
the DET
cat NOUN

the DET
dog NOUN

a DET
bird NOUN
"""


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS)
    return path


def _fresh_env():
    """Environment for a fresh interpreter that imports this package."""
    src = str(Path(bitcipher.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


def _cli_subprocess(argv):
    """Run the CLI in a fresh interpreter, where numpy is not yet loaded."""
    result = subprocess.run(
        [sys.executable, "-m", "bitcipher.cli", *map(str, argv)],
        env=_fresh_env(), capture_output=True, text=True)
    sys.stderr.write(result.stderr)
    return result.returncode


def _golden_frequency_file(text):
    """Independent golden producer: Counter-based, no package code."""
    freqs = Counter()
    docs = defaultdict(set)
    total = 0
    n_docs = 0
    for doc_id, line in enumerate(text.splitlines()):
        tokens = line.lower().split()
        if tokens:
            n_docs += 1
        for tok in tokens:
            freqs[tok] += 1
            total += 1
            docs[tok].add(doc_id)
    lines = [f"#M={total} D={n_docs}"]
    for tok in sorted(freqs, key=lambda t: (-freqs[t], t)):
        lines.append(f"{tok}\t{freqs[tok]}\t{len(docs[tok])}")
    return "\n".join(lines) + "\n"


def test_count_matches_golden_file(tmp_path, corpus_file):
    out = tmp_path / "freq.tsv"
    assert main(["count", str(corpus_file), "--out", str(out)]) == 0
    # tokens in the fixture are already whitespace-delimited, so the golden
    # split-based counter tokenizes identically
    assert out.read_text() == _golden_frequency_file(CORPUS)


def test_count_missing_file_exits_2(tmp_path):
    assert main(["count", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "freq.tsv")]) == 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_count_rejects_threads_below_one(tmp_path, corpus_file, threads):
    out = tmp_path / "freq.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["count", str(corpus_file), "--out", str(out),
              "--threads", threads])
    assert exc.value.code == 2
    assert not out.exists()


def test_count_gzip_equals_plain(tmp_path, corpus_file):
    zipped = tmp_path / "corpus.txt.gz"
    with gzip.open(zipped, "wt") as out:
        out.write(CORPUS)
    plain_out = tmp_path / "freq_plain.tsv"
    gzip_out = tmp_path / "freq_gzip.tsv"
    assert main(["count", str(corpus_file), "--out", str(plain_out)]) == 0
    assert main(["count", str(zipped), "--out", str(gzip_out)]) == 0
    assert plain_out.read_bytes() == gzip_out.read_bytes()


def test_count_threads_is_accepted_and_ignored(tmp_path, corpus_file):
    zipped = tmp_path / "corpus.txt.gz"
    zipped.write_bytes(gzip.compress(corpus_file.read_bytes()))
    script = (
        "import sys\n"
        "from bitcipher.cli import main\n"
        "for corpus in sys.argv[1:]:\n"
        "    for threads in ('1', '2'):\n"
        "        assert main(['count', corpus, '--out',\n"
        "                     f'{corpus}.{threads}.tsv',\n"
        "                     '--threads', threads]) == 0\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'}\n"
        "             & set(sys.modules)))\n")
    result = subprocess.run(
        [sys.executable, "-c", script, str(corpus_file), str(zipped)],
        env=_fresh_env(), capture_output=True, text=True, check=True)
    # counting starts no process pool
    assert result.stdout.splitlines()[-1] == "[]"
    tables = {Path(f"{corpus}.{threads}.tsv").read_bytes()
              for corpus in (corpus_file, zipped) for threads in "12"}
    assert len(tables) == 1


def _corrupt_gzip(data: bytes, case: str) -> bytes:
    data = bytearray(data)
    if case == "cut":
        del data[len(data) // 2:]
    elif case == "first_byte":
        # cut inside the magic number; read as plain text, this is a corpus
        # of one blank line
        del data[1:]
    elif case == "deflate_byte":
        # The first deflate block header follows the 10-byte gzip header;
        # flipping bit 1 turns a dynamic-Huffman block (type 10) into the
        # reserved type 11.
        data[10] ^= 0b010
    else:
        data[2] = 7  # compression method: only 8 (deflate) exists
    return bytes(data)


@pytest.mark.parametrize("command", ["count", "embed"])
@pytest.mark.parametrize("case", ["cut", "deflate_byte", "method_byte",
                                  "first_byte"])
def test_corrupt_gzip_corpus_exits_2(tmp_path, capsys, command, case):
    plain = tmp_path / "corpus.txt"
    plain.write_text(CORPUS * 50)
    freq = tmp_path / "freq.tsv"
    assert main(["count", str(plain), "--out", str(freq)]) == 0
    bad = tmp_path / "corpus.txt.gz"
    bad.write_bytes(_corrupt_gzip(gzip.compress(plain.read_bytes()), case))
    out = tmp_path / "out"
    argv = {"count": ["count", str(bad), "--out", str(out)],
            "embed": ["embed", str(bad), "--freq", str(freq),
                      "--out", str(out), "--bits", "6"]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: corrupt gzip data after decompressed byte offset " in err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("command", ["count", "embed"])
def test_invalid_utf8_corpus_exits_2_naming_file(tmp_path, capsys, command):
    freq = tmp_path / "freq.tsv"
    freq.write_text("#M=2 D=2\nok\t1\t1\nbad\t1\t1\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok\n\xffbad\n")
    out = tmp_path / "out"
    argv = {"count": ["count", str(bad), "--out", str(out)],
            "embed": ["embed", str(bad), "--freq", str(freq),
                      "--out", str(out), "--bits", "6"]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: invalid UTF-8 at byte offset 3" in err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


def _crashing_writer(path_arg):
    """A writer that writes part of its artifact to positional argument
    ``path_arg``, then fails as a full disk would, naming that path."""
    def write(*args, **kwargs):
        with open(args[path_arg], "wb") as out:
            out.write(b"partial")
        raise OSError(errno.ENOSPC, "No space left on device", args[path_arg])
    return write


# command -> (writer that crashes, its path argument, the output it writes);
# embed and postproc crash in their last writer, after the embeddings are
# written.
CRASHES = {"count": ("write_frequency_table", 1, "freq.tsv"),
           "embed": ("save_cipher", 1, "cipher.bin"),
           "postproc": ("write_json", 1, "post.txt.report.json"),
           "probe": ("write_json", 1, "metrics.json"),
           "export": ("write_embeddings_binary", 2, "emb.bin")}


@pytest.mark.parametrize("previous", [True, False], ids=["rerun", "fresh"])
@pytest.mark.parametrize("command", sorted(CRASHES))
def test_crashed_writer_leaves_no_artifact(tmp_path, corpus_file, monkeypatch,
                                           capsys, command, previous):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt", "--bits", "4")
    assert code == 0
    conll = tmp_path / "data.conll"
    conll.write_text(CONLL)
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "count": ["count", corpus_file, "--out", out / "freq.tsv"],
        "embed": ["embed", corpus_file, "--freq", tmp_path / "freq.tsv",
                  "--out", out / "emb.txt", "--bits", "4",
                  "--save-cipher", out / "cipher.bin"],
        "postproc": ["postproc", emb, "--out", out / "post.txt"],
        "probe": ["probe", emb, "--train", conll, "--dev", conll,
                  "--test", conll, "--metrics-out", out / "metrics.json",
                  "--epochs", "1", "--hidden", "4"],
        "export": ["export", emb, "--out", out / "emb.bin",
                   "--format", "binary"],
    }[command]
    argv = [str(arg) for arg in argv]
    if previous:
        assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    writer, path_arg, output = CRASHES[command]
    monkeypatch.setattr(f"bitcipher.cli.{writer}", _crashing_writer(path_arg))
    capsys.readouterr()
    assert main(argv) == 2
    # the error names the output, not the temporary file it was written as
    err = capsys.readouterr().err
    assert f"No space left on device: '{out / output}'" in err
    assert ".tmp" not in err
    # the previous run's artifacts and manifest are untouched, or nothing
    # appears; either way no temporary file is left behind
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _run_embed(tmp_path, corpus_file, name="emb.txt", *extra, run=main):
    freq = tmp_path / "freq.tsv"
    if not freq.exists():
        assert run(["count", str(corpus_file), "--out", str(freq)]) == 0
    out = tmp_path / name
    code = run(["embed", str(corpus_file), "--freq", str(freq),
                "--out", str(out), *extra])
    return code, out


def test_embed_cat_dimension_header(tmp_path, corpus_file):
    code, out = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "25", "--radius", "4", "--mode", "cat")
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.split()[1] == "200"


def test_embed_truncates_to_capacity(tmp_path, capsys):
    # 40 distinct types, 5 bits: vocabulary capacity is 31 plus the OOV row
    corpus = tmp_path / "big.txt"
    corpus.write_text(" ".join(f"tok{i}" for i in range(40)) + "\n")
    freq = tmp_path / "freq40.tsv"
    assert main(["count", str(corpus), "--out", str(freq)]) == 0
    out = tmp_path / "emb5.txt"
    assert main(["embed", str(corpus), "--freq", str(freq), "--out", str(out),
                 "--bits", "5", "--mode", "sum"]) == 0
    assert "truncated" in capsys.readouterr().err
    rows, tokens = read_embeddings_text(out)
    assert rows.shape == (32, 5)
    assert tokens[-1] == "<oov>"


def test_embed_deterministic_manifests(tmp_path, corpus_file):
    flags = ("--bits", "6", "--radius", "2", "--mode", "sum", "--log",
             "--dtype", "df")
    code1, out1 = _run_embed(tmp_path, corpus_file, "emb1.txt", *flags)
    code2, out2 = _run_embed(tmp_path, corpus_file, "emb2.txt", *flags)
    assert code1 == code2 == 0
    m1 = json.loads(Path(str(out1) + ".manifest.json").read_text())
    m2 = json.loads(Path(str(out2) + ".manifest.json").read_text())
    assert (m1["outputs"]["embeddings"]["sha256"]
            == m2["outputs"]["embeddings"]["sha256"])
    assert m1["inputs"] == m2["inputs"]
    assert out1.read_bytes() == out2.read_bytes()


def test_embed_save_cipher(tmp_path, corpus_file):
    # the file is save_cipher of build_cipher(N, b), N the vocabulary size
    cipher_path = tmp_path / "cipher.bin"
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt", "--bits", "6",
                           "--dtype", "df", "--save-cipher", str(cipher_path))
    assert code == 0
    n = len(read_embeddings_text(emb)[1]) - 1
    expected = tmp_path / "expected.bin"
    save_cipher(build_cipher(n, 6), expected, mode="df")
    assert cipher_path.read_bytes() == expected.read_bytes()


def test_embed_rejects_another_corpus_frequency_table(tmp_path, corpus_file,
                                                     capsys):
    other = tmp_path / "other.txt"
    other.write_text("an unrelated line of text\n")
    freq = tmp_path / "freq_other.tsv"
    assert main(["count", str(other), "--out", str(freq)]) == 0
    out = tmp_path / "emb.txt"
    capsys.readouterr()
    assert main(["embed", str(corpus_file), "--freq", str(freq),
                 "--out", str(out), "--bits", "6"]) == 2
    err = capsys.readouterr().err
    assert str(corpus_file) in err and str(freq) in err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("count_flags,embed_flags,message", [
    ([], ["--no-lowercase"],
     "token 'The' has f=1 in {corpus} but f=0 in {freq}"),
    ([], ["--no-split-punct"],
     "token 'mat.' has f=1 in {corpus} but f=0 in {freq}"),
    (["--doc-boundary", "blank"], [],
     "{corpus} has D=2 documents but {freq} declares D=1"),
], ids=["lowercase", "split_punct", "doc_boundary"])
def test_embed_rejects_frequency_table_of_other_tokenizer_flags(
        tmp_path, capsys, count_flags, embed_flags, message):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("The cat sat on the mat.\nthe dog sat on the log.\n")
    freq, out = tmp_path / "freq.tsv", tmp_path / "emb.txt"
    assert main(["count", str(corpus), "--out", str(freq),
                 *count_flags]) == 0
    capsys.readouterr()
    assert main(["embed", str(corpus), "--freq", str(freq), "--out", str(out),
                 "--bits", "4", *embed_flags]) == 2
    err = capsys.readouterr().err
    assert f"error: {message.format(corpus=corpus, freq=freq)}: " in err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


def test_embed_rejects_table_whose_document_frequencies_differ(tmp_path,
                                                              capsys):
    # same f and D, other d: --dtype df would build other vectors
    counted, corpus = tmp_path / "A.txt", tmp_path / "B.txt"
    counted.write_text("a b\na b\nc c\n")
    corpus.write_text("a a\nb b\nc c\n")
    freq, out = tmp_path / "freq.tsv", tmp_path / "emb.txt"
    assert main(["count", str(counted), "--out", str(freq)]) == 0
    capsys.readouterr()
    assert main(["embed", str(corpus), "--freq", str(freq), "--out", str(out),
                 "--bits", "3", "--dtype", "df"]) == 2
    err = capsys.readouterr().err
    assert (f"error: token 'a' has d=1 in {corpus} but d=2 in {freq}: the "
            "frequency table belongs to another corpus" in err)
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("row", ["tok\t0\t0", "tok\t-1\t1", "tok\t2\t3",
                                 "tok\t999\t1"])
def test_embed_rejects_frequency_row_out_of_range(tmp_path, corpus_file,
                                                  capsys, row):
    freq = tmp_path / "freq.tsv"
    assert main(["count", str(corpus_file), "--out", str(freq)]) == 0
    freq.write_text(freq.read_text() + row + "\n")
    line = len(freq.read_text().splitlines())
    out = tmp_path / "emb.txt"
    capsys.readouterr()
    for dtype in ("unigram", "df"):
        assert main(["embed", str(corpus_file), "--freq", str(freq),
                     "--out", str(out), "--bits", "6",
                     "--dtype", dtype]) == 2
        assert f"{freq}:{line}: counts " in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()


def _clash_argv(case, tmp_path, corpus_file, emb):
    freq, conll = tmp_path / "freq.tsv", tmp_path / "data.conll"
    out = str(tmp_path / "out.txt")
    embed = ["embed", str(corpus_file), "--freq", str(freq), "--bits", "5"]
    return {
        # the same file under another spelling of its path
        "count": ["count", str(corpus_file),
                  "--out", str(tmp_path / "." / corpus_file.name)],
        "embed_over_corpus": embed + ["--out", str(corpus_file)],
        "embed_cipher_over_out": embed + ["--out", out, "--save-cipher", out],
        "embed_cipher_over_report": embed + [
            "--out", out, "--postproc", "--save-cipher", out + ".report.json"],
        "embed_cipher_over_manifest": embed + [
            "--out", out, "--save-cipher", out + ".manifest.json"],
        "postproc": ["postproc", str(emb), "--out", str(emb)],
        "probe": ["probe", str(emb), "--train", str(conll), "--dev",
                  str(conll), "--test", str(conll),
                  "--metrics-out", str(conll)],
        "export": ["export", str(emb), "--out", str(emb), "--format", "text"],
        # the test makes out.txt.report.json a directory
        "embed_report_is_directory": embed + ["--out", out, "--postproc"],
        "count_in_missing_directory": [
            "count", str(corpus_file), "--out", str(tmp_path / "no" / "f.tsv")],
        "embed_cipher_in_missing_directory": embed + [
            "--out", out, "--save-cipher", str(tmp_path / "no" / "c.bin")],
    }[case]


def _tree(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _not_read(*args, **kwargs):
    raise AssertionError("an input was read before the outputs were checked")


@pytest.mark.parametrize("case", [
    "count", "embed_over_corpus", "embed_cipher_over_out",
    "embed_cipher_over_report", "embed_cipher_over_manifest", "postproc",
    "probe", "export", "embed_report_is_directory",
    "count_in_missing_directory", "embed_cipher_in_missing_directory"])
def test_output_path_clash_exits_2(tmp_path, corpus_file, capsys, monkeypatch,
                                   case):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt", "--bits", "5")
    assert code == 0
    (tmp_path / "data.conll").write_text(CONLL)
    if case == "embed_report_is_directory":
        (tmp_path / "out.txt.report.json").mkdir()
    # the command fails with exit 1 if it reads an input
    for reader in ("count_corpus", "read_frequency_table", "read_embeddings",
                   "load_conll"):
        monkeypatch.setattr(cli, reader, _not_read)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(_clash_argv(case, tmp_path, corpus_file, emb)) == 2
    message = {
        "embed_report_is_directory":
            f"{tmp_path / 'out.txt.report.json'}: output path is a directory",
        "count_in_missing_directory":
            f"{tmp_path / 'no' / 'f.tsv'}: output directory does not exist",
        "embed_cipher_in_missing_directory":
            f"{tmp_path / 'no' / 'c.bin'}: output directory does not exist",
    }.get(case, "output path is also")
    assert message in capsys.readouterr().err
    # no input changed and nothing was written, manifests included
    assert _tree(tmp_path) == before


def test_input_that_is_not_a_regular_file_exits_2(tmp_path):
    # a manifest re-reads its inputs to hash them, which a pipe cannot give
    out = tmp_path / "p.tsv"
    result = subprocess.run(
        [sys.executable, "-m", "bitcipher.cli", "count", "/dev/stdin",
         "--out", str(out)], input="a a\nb c\n", env=_fresh_env(),
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert "error: /dev/stdin: input is not a regular file" in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["embed", "postproc"])
def test_failed_move_leaves_no_manifest(tmp_path, corpus_file, capsys,
                                        monkeypatch, command):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt", "--bits", "5")
    assert code == 0
    out = tmp_path / "out"
    out.mkdir()
    # command -> (first run's flags, second run's flags, second output);
    # the second run writes a different first output
    first, second, moved_second = {
        "embed": (["--bits", "5"], ["--bits", "4"], "cipher.bin"),
        "postproc": (["--row-mean"], [], "res.txt.report.json"),
    }[command]
    base = {"embed": ["embed", str(corpus_file), "--freq",
                      str(tmp_path / "freq.tsv"), "--out", str(out / "res.txt"),
                      "--save-cipher", str(out / "cipher.bin")],
            "postproc": ["postproc", str(emb), "--out",
                         str(out / "res.txt")]}[command]
    assert main(base + first) == 0
    before = _tree(out)
    replace, moves = os.replace, []

    def fail_second_move(src, dst):
        moves.append(dst)
        if len(moves) == 2:
            raise OSError(errno.EIO, "Input/output error", src)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_second_move)
    capsys.readouterr()
    assert main(base + second) == 2
    err = capsys.readouterr().err
    assert f"Input/output error: '{out / moved_second}'" in err
    assert ".tmp" not in err
    after = _tree(out)
    # the first output moved and changed, the second did not move, and no
    # manifest vouches for either; no temporary file is left
    assert after["res.txt"] != before["res.txt"]
    assert after[moved_second] == before[moved_second]
    assert sorted(after) == sorted(name for name in before
                                   if not name.endswith(".manifest.json"))


@pytest.mark.parametrize("case", [
    "embed_without_postproc", "export_over_postproc", "report_is_an_input",
    "report_is_a_directory", "refused_rerun"])
def test_rerun_leaves_no_stale_report(tmp_path, corpus_file, case):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt", "--bits", "5")
    assert code == 0
    out = tmp_path / "out.txt"
    report = Path(f"{out}.report.json")
    freq = str(tmp_path / "freq.tsv")
    embed = ["embed", str(corpus_file), "--out", str(out), "--freq"]
    # case -> (first run, or None, then the rerun over the same output)
    first, rerun = {
        "embed_without_postproc": (embed + [freq, "--bits", "5", "--postproc"],
                                   embed + [freq, "--bits", "5"]),
        "export_over_postproc": (["postproc", str(emb), "--out", str(out)],
                                 ["export", str(emb), "--out", str(out),
                                  "--format", "text"]),
        # the frequency table sits at the report's path
        "report_is_an_input": (None, embed + [str(report), "--bits", "5"]),
        "report_is_a_directory": (None, embed + [freq, "--bits", "5"]),
        # refused before any work: a 1-bit cipher holds 1 token
        "refused_rerun": (embed + [freq, "--bits", "5", "--postproc"],
                          embed + [freq, "--bits", "1"]),
    }[case]
    if first:
        assert main(first) == 0
    if case == "report_is_an_input":
        report.write_bytes(Path(freq).read_bytes())
    if case == "report_is_a_directory":
        report.mkdir()
    before = _tree(tmp_path)
    assert main(rerun) == (2 if case == "refused_rerun" else 0)
    after = _tree(tmp_path)
    if case == "refused_rerun":
        assert report.is_file() and after == before
        return
    if case in ("embed_without_postproc", "export_over_postproc"):
        assert not report.exists()
    else:
        assert report.is_dir() == (case == "report_is_a_directory")
        assert after[report.name] == before[report.name]
    outputs = json.loads(Path(f"{out}.manifest.json").read_text())["outputs"]
    assert [entry["path"] for entry in outputs.values()] == [str(out)]


@pytest.mark.parametrize("case", ["dead", "live", "not_permitted",
                                  "directory", "symlink"])
def test_publish_removes_temporary_files_of_dead_runs_only(
        tmp_path, corpus_file, case):
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    live = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(60)"])
    try:
        pid = live.pid if case == "live" else dead.pid
        # a killed run's temporary output and manifest, an unrelated
        # output's, and a name no run writes
        temps = [tmp_path / f".freq.tsv.{pid}.tmp",
                 tmp_path / f".freq.tsv.manifest.json.{pid}.tmp"]
        others = [tmp_path / f".other.tsv.{dead.pid}.tmp",
                  tmp_path / f".freq.tsv.{dead.pid}x.tmp"]
        for path in others:
            path.write_text("partial")
        for path in temps:
            if case == "directory":
                path.mkdir()
            elif case == "symlink":
                path.symlink_to(others[0])
            else:
                path.write_text("partial")
        with pytest.MonkeyPatch.context() as patch:
            if case == "not_permitted":
                def kill(pid, sig):
                    raise PermissionError(1, "Operation not permitted")
                patch.setattr(os, "kill", kill)
            assert main(["count", str(corpus_file), "--out",
                         str(tmp_path / "freq.tsv")]) == 0
    finally:
        live.kill()
        live.wait()
    left = [path for path in temps if os.path.lexists(path)]
    assert left == ([] if case == "dead" else temps)
    assert all(path.read_text() == "partial" for path in others)


def test_postproc_command(tmp_path, corpus_file):
    code, out = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "4", "--radius", "2", "--mode", "sum")
    assert code == 0
    refined = tmp_path / "refined.txt"
    assert main(["postproc", str(out), "--out", str(refined)]) == 0
    rows, _ = read_embeddings_text(refined)
    norms = np.linalg.norm(rows, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-5)
    report = json.loads((tmp_path / "refined.txt.report.json").read_text())
    assert report["steps"] == ["whiten", "center", "l2_normalize"]


def test_export_round_trip(tmp_path, corpus_file):
    code, out = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "4", "--radius", "2", "--mode", "sum")
    assert code == 0
    binary = tmp_path / "emb.bin"
    text_again = tmp_path / "emb_again.txt"
    assert main(["export", str(out), "--out", str(binary),
                 "--format", "binary"]) == 0
    assert main(["export", str(binary), "--out", str(text_again),
                 "--format", "text"]) == 0
    first, tokens_first = read_embeddings_text(out)
    second, tokens_second = read_embeddings_text(text_again)
    assert tokens_first == tokens_second
    assert np.all(np.abs(first - second) < 1e-5)


# Every character str.split() splits on: the text reader's field separators.
WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


@given(token=st.one_of(st.just(""), st.builds(
    "{}{}{}".format, st.text("ab", max_size=2), st.sampled_from(WHITESPACE),
    st.text("ab", max_size=2))))
def test_export_text_round_trips_or_exits_2(token):
    # A binary file can hold any token; the text format escapes only
    # space, tab, newline and carriage return.
    tokens = ["c", token, OOV_TOKEN]
    rows = np.arange(6, dtype=np.float32).reshape(3, 2)
    with tempfile.TemporaryDirectory() as tmp:
        binary, text = Path(tmp) / "emb.bin", Path(tmp) / "emb.txt"
        write_embeddings_binary(rows, tokens, binary)
        code = main(["export", str(binary), "--out", str(text),
                     "--format", "text"])
        if code == 0:
            back, back_tokens = read_embeddings_text(text)
            assert back_tokens == tokens
            assert np.array_equal(back, rows)
            assert token and set(token) <= set("ab \t\n\r")
        else:
            assert code == 2
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["emb.bin"]


@pytest.mark.parametrize("writer", ["text", "binary"])
def test_writer_token_error_names_output_path(tmp_path, corpus_file, capsys,
                                              monkeypatch, writer):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if writer == "text":
        # export to text: a token holding whitespace the format cannot escape
        source = tmp_path / "emb.bin"
        write_embeddings_binary(np.eye(3), ["c", "a\xa0b", OOV_TOKEN], source)
        out = out_dir / "emb.txt"
        argv = ["export", source, "--out", out, "--format", "text"]
        message = f"{out}: row 1 token 'a\\xa0b' is empty or holds whitespace"
    else:
        # embed with a binary writer that refuses the rows it is handed
        def refuse(rows, tokens, path):
            raise ValueError(f"{path}: refused")

        monkeypatch.setattr(cli, "write_embeddings_binary", refuse)
        freq = tmp_path / "freq.tsv"
        assert main(["count", str(corpus_file), "--out", str(freq)]) == 0
        out = out_dir / "emb.bin"
        argv = ["embed", corpus_file, "--freq", freq, "--out", out,
                "--bits", "5", "--format", "binary"]
        message = f"{out}: refused"
    capsys.readouterr()
    assert main([str(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert ".tmp" not in err
    assert list(out_dir.iterdir()) == []


def test_export_binary_refuses_a_value_beyond_float32(tmp_path, capsys):
    source = tmp_path / "emb.txt"
    source.write_text(f"3 2\na 1 2\nb -1e39 0\n{OOV_TOKEN} 0 0\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "emb.bin"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["export", str(source), "--out", str(out),
                     "--format", "binary"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith(
        f"error: {out}: row 1 token 'b' holds a value that is not finite "
        "in float32")
    assert list(out_dir.iterdir()) == []


def test_corpus_token_spelled_like_the_oov_label_embeds(tmp_path, capsys):
    # --no-split-punct keeps "<oov>" whole; it is reserved for the OOV row
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a <oov> b\n")
    freq, out = tmp_path / "freq.tsv", tmp_path / "emb.txt"
    assert main(["count", str(corpus), "--out", str(freq),
                 "--no-split-punct"]) == 0
    capsys.readouterr()
    assert main(["embed", str(corpus), "--freq", str(freq), "--out", str(out),
                 "--bits", "4", "--mode", "sum", "--no-split-punct"]) == 0
    err = capsys.readouterr().err
    assert f"warning: {OOV_TOKEN} is the reserved label" in err
    assert "truncated" not in err
    rows, tokens = read_embeddings(out)
    assert tokens == ["a", "b", OOV_TOKEN]
    assert rows.shape == (3, 4)


def test_probe_command_output_format(tmp_path, corpus_file, capsys):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "5", "--radius", "2", "--mode", "sum")
    assert code == 0
    conll = tmp_path / "data.conll"
    conll.write_text(CONLL)
    metrics_out = tmp_path / "metrics.json"
    assert main(["probe", str(emb), "--train", str(conll), "--dev", str(conll),
                 "--test", str(conll), "--metrics-out", str(metrics_out),
                 "--epochs", "5", "--hidden", "8", "--seed", "7"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert re.fullmatch(r"\d+\.\d{2} \(\d+\.\d{2}\)", line)
    payload = json.loads(metrics_out.read_text())
    assert set(payload) >= {"accuracy", "macro_f1", "per_label", "train_loss"}


def test_probe_seed_reproducible(tmp_path, corpus_file):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "5", "--radius", "2", "--mode", "sum")
    assert code == 0
    conll = tmp_path / "data.conll"
    conll.write_text(CONLL)
    outs = []
    for name in ("m1.json", "m2.json"):
        metrics_out = tmp_path / name
        assert main(["probe", str(emb), "--train", str(conll),
                     "--dev", str(conll), "--test", str(conll),
                     "--metrics-out", str(metrics_out),
                     "--epochs", "5", "--hidden", "8", "--seed", "3"]) == 0
        outs.append(metrics_out.read_text())
    assert outs[0] == outs[1]


def test_probe_dimension_mismatch_reported(tmp_path, corpus_file, capsys):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "4", "--radius", "1", "--mode", "sum")
    assert code == 0
    # truncate the embedding file to break a row
    lines = emb.read_text().splitlines()
    lines[1] = " ".join(lines[1].split()[:3])
    emb.write_text("\n".join(lines) + "\n")
    conll = tmp_path / "data.conll"
    conll.write_text(CONLL)
    assert main(["probe", str(emb), "--train", str(conll), "--dev", str(conll),
                 "--test", str(conll),
                 "--metrics-out", str(tmp_path / "m.json")]) == 2
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--dropout", "1.0"), ("--dropout", "-0.1"), ("--dropout", "nan"),
    ("--hidden", "0"), ("--batch-size", "0"), ("--epochs", "0"),
    ("--patience", "0"), ("--lr", "0"), ("--lr", "inf"), ("--lr", "nan"),
    ("--momentum", "1.0"), ("--momentum", "-0.5"), ("--momentum", "nan"),
])
def test_probe_rejects_out_of_range_hyperparams(tmp_path, corpus_file,
                                               capsys, flag, value):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "5", "--radius", "2", "--mode", "sum")
    assert code == 0
    conll = tmp_path / "data.conll"
    conll.write_text(CONLL)
    metrics_out = tmp_path / "metrics.json"
    capsys.readouterr()
    assert main(["probe", str(emb), "--train", str(conll), "--dev", str(conll),
                 "--test", str(conll), "--metrics-out", str(metrics_out),
                 "--epochs", "2", flag, value]) == 2
    assert "must be" in capsys.readouterr().err
    assert not metrics_out.exists()
    assert not Path(str(metrics_out) + ".manifest.json").exists()


@pytest.mark.parametrize("split,content,message", [
    ("train", "", "train split holds no tokens"),
    ("dev", "", "dev split holds no tokens"),
    ("dev", "-DOCSTART- O\n\n", "dev split holds no tokens"),
    ("test", "", "test split holds no tokens"),
    ("dev", "the XX\n", "label 'XX' in dev split was never seen in training"),
    ("test", "the XX\n",
     "label 'XX' in test split was never seen in training"),
], ids=["empty_train", "empty_dev", "docstart_only_dev", "empty_test",
        "unseen_dev_label", "unseen_test_label"])
def test_probe_data_errors_exit_2_naming_file(tmp_path, corpus_file, capsys,
                                              monkeypatch, split, content,
                                              message):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "5", "--radius", "2", "--mode", "sum")
    assert code == 0
    conll, bad = tmp_path / "data.conll", tmp_path / "bad.conll"
    conll.write_text(CONLL)
    bad.write_text(content)
    files = dict.fromkeys(("train", "dev", "test"), conll) | {split: bad}
    metrics_out = tmp_path / "metrics.json"
    # refused before training: the command fails with exit 1 if it trains
    monkeypatch.setattr(cli, "train_probe", _not_read)
    capsys.readouterr()
    assert main(["probe", str(emb), "--train", str(files["train"]),
                 "--dev", str(files["dev"]), "--test", str(files["test"]),
                 "--metrics-out", str(metrics_out), "--epochs", "2"]) == 2
    assert f"error: {bad}: {message}\n" in capsys.readouterr().err
    assert not metrics_out.exists()
    assert not Path(str(metrics_out) + ".manifest.json").exists()


def test_probe_non_finite_metrics_exit_2_naming_output(tmp_path, corpus_file,
                                                       capsys, monkeypatch):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt", "--bits", "5")
    assert code == 0
    conll = tmp_path / "data.conll"
    conll.write_text(CONLL)
    train = cli.train_probe

    def diverged(*args, **kwargs):
        model = train(*args, **kwargs)
        model.train_loss[-1] = float("nan")
        return model

    monkeypatch.setattr(cli, "train_probe", diverged)
    metrics_out = tmp_path / "metrics.json"
    capsys.readouterr()
    assert main(["probe", str(emb), "--train", str(conll), "--dev", str(conll),
                 "--test", str(conll), "--metrics-out", str(metrics_out),
                 "--epochs", "2"]) == 2
    err = capsys.readouterr().err
    assert f"error: {metrics_out}: Out of range float values" in err
    assert ".tmp" not in err
    assert not metrics_out.exists()
    assert not Path(str(metrics_out) + ".manifest.json").exists()


def test_degenerate_postproc_report_is_standard_json(tmp_path):
    # a constant column is a zero-variance direction: the covariance is
    # singular, and its condition number is reported as null, not Infinity
    rows = np.random.default_rng(0).normal(size=(50, 4))
    rows[:, 2] = 1.0
    emb, out = tmp_path / "emb.bin", tmp_path / "post.txt"
    write_embeddings_binary(rows, [f"w{i}" for i in range(50)], emb)
    assert main(["postproc", str(emb), "--out", str(out)]) == 0

    def refuse(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    text = Path(str(out) + ".report.json").read_text()
    report = json.loads(text, parse_constant=refuse)
    assert report["degenerate_directions"] == 1
    assert report["pre_covariance_condition"] is None


def _poison_embeddings(tmp_path, corpus_file, case):
    """An embedding file whose row 1 holds one non-finite value."""
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "5", "--radius", "2", "--mode", "sum")
    assert code == 0
    if case == "binary_nan":
        binary = tmp_path / "emb.bin"
        assert main(["export", str(emb), "--out", str(binary),
                     "--format", "binary"]) == 0
        data = bytearray(binary.read_bytes())
        at = 16 + 4 * (5 + 2)  # header, then row 1, column 2 (float32)
        data[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        return bad
    lines = emb.read_text().splitlines()
    parts = lines[2].split()
    parts[3] = case.split("_")[1]  # row 1, column 2
    lines[2] = " ".join(parts)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def _reading_command(command, embeddings, out, tmp_path):
    """argv of a command that reads ``embeddings`` and writes ``out``."""
    conll = tmp_path / "data.conll"
    conll.write_text(CONLL)
    return {
        "probe": ["probe", str(embeddings), "--train", str(conll), "--dev",
                  str(conll), "--test", str(conll), "--metrics-out", str(out)],
        "postproc": ["postproc", str(embeddings), "--out", str(out)],
        "export": ["export", str(embeddings), "--out", str(out),
                   "--format", "text"],
    }[command]


@pytest.mark.parametrize("command", ["probe", "postproc", "export"])
@pytest.mark.parametrize("case", ["text_nan", "text_inf", "binary_nan"])
def test_non_finite_embeddings_exit_2(tmp_path, corpus_file, capsys, case,
                                     command):
    bad = _poison_embeddings(tmp_path, corpus_file, case)
    out = tmp_path / "out"
    argv = _reading_command(command, bad, out, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: row 1 " in err and "non-finite" in err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("command", ["probe", "postproc", "export"])
@pytest.mark.parametrize("case,message", [
    ("extra_row", "text after row 15: the header declares 16 rows"),
    ("non_integer_header", "malformed header 'x 5'"),
    ("negative_header", "malformed header '-16 5'"),
    ("short_header", "malformed header '16'"),
    ("long_header", "malformed header '16 5 1'"),
    ("non_numeric", "row 1: could not convert string to float: 'zz'"),
    ("cut_short", "ends before row 13 of the 16 rows"),
    # refused before numpy allocates the rows the header declares
    ("overstated_header", "ends before row 16 of the 100000000000 rows"),
])
def test_malformed_text_embeddings_exit_2(tmp_path, corpus_file, capsys,
                                          command, case, message):
    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "5", "--radius", "2", "--mode", "sum")
    assert code == 0
    lines = emb.read_text().splitlines()
    assert lines[0] == "16 5"
    if case == "extra_row":
        lines.append("extra 0 0 0 0 0")
    elif case == "non_integer_header":
        lines[0] = "x 5"
    elif case == "negative_header":
        lines[0] = "-16 5"
    elif case == "short_header":
        lines[0] = "16"
    elif case == "long_header":
        lines[0] = "16 5 1"
    elif case == "overstated_header":
        lines[0] = "100000000000 5"
    elif case == "non_numeric":
        parts = lines[2].split()
        parts[3] = "zz"  # row 1, column 2
        lines[2] = " ".join(parts)
    else:
        lines = lines[:-3]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_reading_command(command, bad, out, tmp_path)) == 2
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("command", ["probe", "postproc", "export"])
@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_zero_width_embeddings_exit_2(tmp_path, capsys, command, fmt):
    bad = tmp_path / "bad"
    if fmt == "text":
        bad.write_text(f"2 0\na \n{OOV_TOKEN} \n")
    else:
        write_embeddings_binary(np.zeros((2, 0)), ["a", OOV_TOKEN], bad)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_reading_command(command, bad, out, tmp_path)) == 2
    assert (f"error: {bad}: the rows hold no values (dimension 0)\n"
            in capsys.readouterr().err)
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("case", ["probe_without_oov", "postproc_few_rows",
                                  "embed_one_type"])
def test_exit_2_message_names_the_input_at_fault(tmp_path, capsys, case):
    emb, out = tmp_path / "emb.txt", tmp_path / "out"
    corpus, freq = tmp_path / "corpus.txt", tmp_path / "freq.tsv"
    if case == "probe_without_oov":
        emb.write_text("2 1\nthe 1\ncat 2\n")
        argv = _reading_command("probe", emb, out, tmp_path)
        bad, message = emb, "embedding file must end with the <oov> row"
    elif case == "postproc_few_rows":
        emb.write_text(f"2 3\nthe 1 2 3\n{OOV_TOKEN} 4 5 6\n")
        argv = _reading_command("postproc", emb, out, tmp_path)
        bad, message = emb, "whitening needs at least 4 rows, got 2"
    else:
        corpus.write_text("a a a\n")
        assert main(["count", str(corpus), "--out", str(freq)]) == 0
        argv = ["embed", str(corpus), "--freq", str(freq), "--out", str(out),
                "--bits", "4"]
        bad, message = freq, "sigma requires a vocabulary of at least 2 tokens"
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: {bad}: {message}\n" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


@pytest.mark.parametrize("flags,message", [
    (("--bits", "1"), "vocabulary truncated to 1 of 5 distinct tokens "
                      "(capacity 2^1 - 1); the noise model needs at least 2"),
    (("--bits", "4", "--max-vocab", "1"),
     "vocabulary truncated to 1 of 5 distinct tokens (--max-vocab 1); the "
     "noise model needs at least 2"),
    (("--bits", "25", "--mode", "cat", "--postproc"),
     "--postproc whitens dimension 200 (--bits 25 --radius 4 --mode cat), "
     "which needs at least 201 rows, but a vocabulary of 5 tokens gives 6 "
     "with <oov>"),
], ids=["capacity", "max_vocab", "postproc_rows"])
def test_embed_refuses_impossible_flags_before_the_corpus(
        tmp_path, capsys, monkeypatch, flags, message):
    corpus, freq, out = (tmp_path / "c.txt", tmp_path / "f.tsv",
                         tmp_path / "emb.txt")
    corpus.write_text("a b c d e\na b c\n")
    assert main(["count", str(corpus), "--out", str(freq)]) == 0
    # the command fails with exit 1 if it reads the corpus
    monkeypatch.setattr(cli, "intern_documents", _not_read)
    monkeypatch.setattr(cli, "embed_corpus", _not_read)
    capsys.readouterr()
    assert main(["embed", str(corpus), "--freq", str(freq), "--out",
                 str(out), *flags]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()
    assert not Path(str(out) + ".report.json").exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
def test_epsilon_must_be_finite_and_positive(tmp_path, corpus_file, capsys,
                                             epsilon):
    flags = ("--bits", "4", "--radius", "2", "--mode", "sum")
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as patch:
        # refused before the corpus is read and counted
        patch.setattr(cli, "intern_documents", _not_read)
        patch.setattr(cli, "embed_corpus", _not_read)
        code, emb = _run_embed(tmp_path, corpus_file, "post.txt", *flags,
                               "--postproc", "--epsilon", epsilon)
    assert code == 2
    expected = f"epsilon must be finite and > 0, got {float(epsilon)}"
    assert expected in capsys.readouterr().err
    for suffix in ("", ".manifest.json", ".report.json"):
        assert not Path(str(emb) + suffix).exists()

    code, emb = _run_embed(tmp_path, corpus_file, "emb.txt", *flags)
    assert code == 0
    out = tmp_path / "refined.txt"
    assert main(["postproc", str(emb), "--out", str(out),
                 "--epsilon", epsilon]) == 2
    assert expected in capsys.readouterr().err
    for suffix in ("", ".manifest.json", ".report.json"):
        assert not Path(str(out) + suffix).exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_embed_rejects_max_vocab_below_one(tmp_path, corpus_file, value):
    with pytest.raises(SystemExit) as exc:
        _run_embed(tmp_path, corpus_file, "emb.txt", "--bits", "6",
                   "--max-vocab", value)
    assert exc.value.code == 2
    assert not (tmp_path / "emb.txt").exists()


@pytest.mark.parametrize("flags,limit", [
    (("--bits", "6", "--max-vocab", "5"), "(--max-vocab 5)"),
    (("--bits", "3"), "(capacity 2^3 - 1)"),
    (("--bits", "3", "--max-vocab", "7"), "(capacity 2^3 - 1)"),
    (("--bits", "3", "--max-vocab", "9"), "(capacity 2^3 - 1)"),
], ids=["max_vocab", "capacity", "both", "capacity_below_max_vocab"])
def test_embed_truncation_warning_names_binding_limit(tmp_path, corpus_file,
                                                      capsys, flags, limit):
    code, out = _run_embed(tmp_path, corpus_file, "emb.txt", *flags)
    assert code == 0
    err = capsys.readouterr().err
    assert "of 15 distinct tokens " + limit in err


def test_count_manifest_records_digests(tmp_path, corpus_file):
    out = tmp_path / "freq.tsv"
    assert main(["count", str(corpus_file), "--out", str(out)]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["command"] == "count"
    assert manifest["inputs"]["corpus"]["sha256"]
    assert manifest["outputs"]["frequencies"]["sha256"]
    assert manifest["config"]["tokenizer"]["lowercase"] is True


def _corrupt_bin(data: bytes, case: str, n_values: int) -> bytes:
    first_length = 16 + 4 * n_values  # header, then the float block
    return {
        "cut_3": data[:-3],
        "cut_5": data[:-5],
        "trailing_garbage": data + b"\xde\xad\xbe\xef",
        "cut_in_length_prefix": data[:first_length + 2],
        "cut_in_float_block": data[:16 + 10],
    }[case]


@pytest.mark.parametrize("case", ["cut_3", "cut_5", "trailing_garbage",
                                  "cut_in_length_prefix",
                                  "cut_in_float_block"])
def test_export_rejects_corrupt_binary(tmp_path, corpus_file, capsys, case):
    code, out = _run_embed(tmp_path, corpus_file, "emb.txt",
                           "--bits", "4", "--radius", "2", "--mode", "sum")
    assert code == 0
    binary = tmp_path / "emb.bin"
    assert main(["export", str(out), "--out", str(binary),
                 "--format", "binary"]) == 0
    rows, _ = read_embeddings_text(out)
    bad = tmp_path / f"{case}.bin"
    bad.write_bytes(_corrupt_bin(binary.read_bytes(), case, rows.size))
    capsys.readouterr()
    assert main(["export", str(bad), "--out", str(tmp_path / "again.txt"),
                 "--format", "text"]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("cut", [1, 3])
def test_export_refuses_a_cut_text_file(tmp_path, capsys, cut):
    # without its last 3 bytes the file would read 0.123456 as 0.1234
    rows = np.array([[0.5, -0.25], [0.25, 0.123456]])
    whole = tmp_path / "whole.txt"
    write_embeddings_text(rows, ["a", OOV_TOKEN], whole)
    data = whole.read_bytes()
    assert data.endswith(b" 0.123456\n")
    out = tmp_path / "out"
    out.mkdir()
    bad = out / "cut.txt"
    bad.write_bytes(data[:-cut])
    capsys.readouterr()
    assert main(["export", str(bad), "--out", str(out / "emb.bin"),
                 "--format", "binary"]) == 2
    assert (f"{bad}: row 1 ends at byte {len(data) - cut} without a newline"
            in capsys.readouterr().err)
    # no output, no manifest, no temporary file
    assert [p.name for p in out.iterdir()] == ["cut.txt"]


def test_cli_import_does_not_load_scipy():
    probe = "import sys, bitcipher.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_count_loads_no_numpy_module(tmp_path, corpus_file):
    zipped = tmp_path / "corpus.txt.gz"
    zipped.write_bytes(gzip.compress(corpus_file.read_bytes()))
    script = (
        "import sys\n"
        "from bitcipher.cli import main\n"
        "for corpus in sys.argv[1:]:\n"
        "    assert main(['count', corpus, '--out', corpus + '.tsv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.')))\n")
    result = subprocess.run(
        [sys.executable, "-c", script, str(corpus_file), str(zipped)],
        env=_fresh_env(), capture_output=True, text=True, check=True)
    # ``numpy`` itself is registered as an unloaded stub; any submodule
    # would mean numpy's ``__init__`` ran
    assert result.stdout.splitlines()[-1] == "[]"
    assert (Path(f"{corpus_file}.tsv").read_bytes()
            == Path(f"{zipped}.tsv").read_bytes())


def test_numpy_stub_is_transparent():
    script = (
        "import bitcipher\n"
        "import numpy\n"
        "from numpy import float32\n"
        "values, _ = numpy.linalg.eigh(numpy.eye(2, dtype=float32))\n"
        "assert isinstance(values, numpy.ndarray), type(values)\n"
        "assert values.dtype == float32 and list(values) == [1.0, 1.0]\n"
        "assert bitcipher.cooc.np is numpy\n"
        "print(numpy.__version__)\n")
    result = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == np.__version__


# The `embed` manifest's config block and the output digests on the synth
# corpus. A change here changes the manifest format or the artifacts.
GOLDEN_CORPUS_SHA256 = \
    "47ba5e387e526a462d9af9b32e149331001dad17449c4be06b6002baa9d6e763"
_GOLDEN_TOKENIZER = {"doc_boundary": "line", "lowercase": True,
                     "split_punctuation": True}
GOLDEN_EMBED = {
    "sum_postproc": (
        ("--bits", "8", "--radius", "3", "--mode", "sum", "--log",
         "--dtype", "df", "--include-center", "--max-vocab", "150",
         "--postproc"),
        {"bits": 8, "dtype": "df", "epsilon": 1e-05, "format": "text",
         "include_center": True, "log": True, "max_vocab": 150,
         "mode": "sum", "postproc": True, "radius": 3,
         "tokenizer": _GOLDEN_TOKENIZER},
        {"embeddings": "192641e28cd0b4269252a7d65d35b51a"
                       "db82070a7725d1d6b3cbbb783a2aa944",
         "postproc_report": "9e8285ef50e13ce61fa9c555d3bc1f17"
                            "4e8226c81cc67b31b2a1491abd952725"}),
    "cat": (
        ("--bits", "6", "--radius", "2", "--mode", "cat",
         "--format", "binary"),
        {"bits": 6, "dtype": "unigram", "epsilon": None, "format": "binary",
         "include_center": False, "log": False, "max_vocab": None,
         "mode": "cat", "postproc": False, "radius": 2,
         "tokenizer": _GOLDEN_TOKENIZER},
        {"embeddings": "9bb10f8fb9fbc867d52b188713ac8a23"
                       "a00f175463a168d01c5fdf23bae4396b"}),
}


def _synth_corpus(tmp_path):
    from bitcipher.synth import generate_tagged_sentences, sentences_to_text
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(sentences_to_text(generate_tagged_sentences(3_000,
                                                                  seed=2)),
                      encoding="utf-8")
    return corpus


def _assert_embed_golden(tmp_path, setting, run):
    flags, config, outputs = GOLDEN_EMBED[setting]
    corpus = _synth_corpus(tmp_path)
    code, out = _run_embed(tmp_path, corpus, "emb", *flags, run=run)
    assert code == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["inputs"]["corpus"]["sha256"] == GOLDEN_CORPUS_SHA256
    assert manifest["config"] == config
    assert {name: entry["sha256"]
            for name, entry in manifest["outputs"].items()} == outputs


@pytest.mark.parametrize("setting", sorted(GOLDEN_EMBED))
def test_embed_manifest_matches_golden(tmp_path, setting):
    _assert_embed_golden(tmp_path, setting, main)


# The tests above run in this process, which has loaded numpy already; here
# each command loads it itself, on first use, as a user's command does.
@pytest.mark.parametrize("setting", sorted(GOLDEN_EMBED))
def test_embed_manifest_matches_golden_in_fresh_interpreter(tmp_path,
                                                            setting):
    _assert_embed_golden(tmp_path, setting, _cli_subprocess)


def _conll_text(sentences):
    return "".join("".join(f"{token} {tag}\n" for token, tag in sentence)
                   + "\n" for sentence in sentences)


def _run_golden_chain(tmp_path, run):
    """count -> embed -> postproc -> probe -> export on the synth corpus."""
    from bitcipher.synth import generate_tagged_sentences
    corpus = _synth_corpus(tmp_path)
    splits = {}
    for seed, split in enumerate(("train", "dev", "test"), start=4):
        splits[split] = tmp_path / f"{split}.conll"
        splits[split].write_text(
            _conll_text(generate_tagged_sentences(300, seed=seed)),
            encoding="utf-8")
    freq, emb = tmp_path / "freq.tsv", tmp_path / "emb.txt"
    post, metrics = tmp_path / "post.bin", tmp_path / "metrics.json"
    text = tmp_path / "post.txt"
    for argv in (
        ["count", str(corpus), "--out", str(freq)],
        ["embed", str(corpus), "--freq", str(freq), "--out", str(emb),
         "--bits", "8", "--radius", "2"],
        ["postproc", str(emb), "--out", str(post), "--format", "binary"],
        ["probe", str(post), "--train", str(splits["train"]),
         "--dev", str(splits["dev"]), "--test", str(splits["test"]),
         "--metrics-out", str(metrics), "--epochs", "3", "--hidden", "8",
         "--seed", "1"],
        ["export", str(post), "--out", str(text), "--format", "text"],
    ):
        assert run(argv) == 0, argv[0]
    return {"count": freq, "postproc": post, "probe": metrics,
            "export": text}


def _manifest_digests(manifest):
    """A manifest without its paths: each input and output as its digest."""
    return {**manifest,
            "inputs": {k: v["sha256"] for k, v in manifest["inputs"].items()},
            "outputs": {k: v["sha256"]
                        for k, v in manifest["outputs"].items()}}


# The other commands' manifests on the same corpus: command, version,
# config and every input and output digest. A change here changes the
# manifest bytes.
_DIGEST_POST = "dd31d8f1d88377d69256b2d3df627e10ac008f213a11eb803622e0fb91848623"
GOLDEN_CHAIN = {
    "count": {
        "command": "count", "version": "0.1.0",
        "config": {"threads": 1, "tokenizer": _GOLDEN_TOKENIZER},
        "inputs": {"corpus": GOLDEN_CORPUS_SHA256},
        "outputs": {"frequencies": "662994b018f9eadb1b0baa3ecb45a02c"
                                   "3fb03af19b4dbe07fd86ea2183587e5c"}},
    "postproc": {
        "command": "postproc", "version": "0.1.0",
        "config": {"epsilon": 1e-05, "format": "binary", "row_mean": False},
        "inputs": {"embeddings": "be672061e1e5a1eb14ccbc256d0876f6"
                                 "809f7908edb0368203d8d1fbf52b2567"},
        "outputs": {"embeddings": _DIGEST_POST,
                    "report": "0ae75f1de7b9072f3bbd52f2ccf1f450"
                              "8a5fdfe52965655015e0b33af36761df"}},
    "probe": {
        "command": "probe", "version": "0.1.0",
        "config": {"hyperparams": {"batch_size": 128, "dropout": 0.5,
                                   "epochs": 3, "hidden": 8,
                                   "leaky_slope": 0.01,
                                   "learning_rate": 0.01, "momentum": 0.9,
                                   "patience": 5, "seed": 1},
                   "label_column": -1, "token_column": 0},
        "inputs": {"dev": "90cab9f04e8adf26392007ca8083af08"
                          "81bae562c2f0b8f15c40153eb7104fdf",
                   "embeddings": _DIGEST_POST,
                   "test": "1c049cf57fb6d8f7d009a9e9f3949a14"
                           "2ba4ef816be774904fecdeb81fcb605c",
                   "train": "5c73ab9974d7cfe54fc3a714b429120f"
                            "a445ec26e69168d9ea2a81db7e2affea"},
        "outputs": {"metrics": "f21601fde62516a2d13b116fe583ae67"
                               "5adc5a8920433c3990f46d66b5dc3901"}},
    "export": {
        "command": "export", "version": "0.1.0",
        "config": {"format": "text"},
        "inputs": {"embeddings": _DIGEST_POST},
        "outputs": {"embeddings": "f6856274e78a6b083203f7d1e3ca2832"
                                  "c069b60a5f0d65a181d1161a59d28752"}},
}


def _assert_chain_golden(tmp_path, run):
    artifacts = _run_golden_chain(tmp_path, run)
    for command, artifact in artifacts.items():
        manifest = json.loads(
            Path(str(artifact) + ".manifest.json").read_text())
        assert _manifest_digests(manifest) == GOLDEN_CHAIN[command], command


def test_chain_manifests_match_golden(tmp_path):
    _assert_chain_golden(tmp_path, main)


def test_chain_manifests_match_golden_in_fresh_interpreters(tmp_path):
    _assert_chain_golden(tmp_path, _cli_subprocess)


def test_postproc_frees_a_binary_input_before_whitening(tmp_path,
                                                        traced_peak):
    # float64 rows, the whitened matrix and the tokens: 2.23 measured,
    # against 2.72 while the float32 rows were held through whitening
    rows = np.random.default_rng(12).normal(size=(8192, 64))
    source = tmp_path / "emb.bin"
    write_embeddings_binary(rows, [f"t{i}" for i in range(8191)] + [OOV_TOKEN],
                            source)
    with traced_peak() as peak:
        assert main(["postproc", str(source), "--out", str(tmp_path / "out"),
                     "--format", "binary"]) == 0
    assert peak.bytes <= 2.4 * rows.nbytes
