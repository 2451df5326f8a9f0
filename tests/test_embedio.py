import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bitcipher
from bitcipher import embedio
from bitcipher.cli import main
from bitcipher.corpus import Vocabulary
from bitcipher.embedio import (OOV_TOKEN, escape_token, read_embeddings,
                               read_embeddings_binary, read_embeddings_text,
                               row_tokens, unescape_token,
                               vocabulary_from_tokens,
                               write_embeddings_binary, write_embeddings_text)


def test_text_header_and_rows(tmp_path):
    rows = np.array([[1.0, 2.0, 3.0], [0.25, 0.5, 0.125]])
    path = tmp_path / "emb.txt"
    write_embeddings_text(rows, ["tok", OOV_TOKEN], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 3"
    assert len(lines) == 3
    assert lines[1].split() == ["tok", "1", "2", "3"]
    assert lines[2].split()[0] == OOV_TOKEN


def test_text_round_trip_within_tolerance(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(40, 12))
    tokens = [f"t{i}" for i in range(39)] + [OOV_TOKEN]
    path = tmp_path / "emb.txt"
    write_embeddings_text(rows, tokens, path)
    back, back_tokens = read_embeddings_text(path)
    assert back_tokens == tokens
    assert np.all(np.abs(back - rows) < 1e-5)


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(17, 8)).astype(np.float32)
    tokens = [f"w{i}" for i in range(16)] + [OOV_TOKEN]
    path = tmp_path / "emb.bin"
    write_embeddings_binary(rows, tokens, path)
    back, back_tokens = read_embeddings_binary(path)
    assert back_tokens == tokens
    assert np.array_equal(back, rows.astype(np.float32))
    # the rows are the caller's to change in place, in the host's byte order
    assert back.dtype == np.float32 and back.dtype.isnative
    assert back.flags.c_contiguous and back.flags.writeable


# How each damage to the 60-byte file of a 3 x 2 matrix with tokens "ab",
# "c" and <oov> is reported: header 0-16, floats 16-40, then a 4-byte length
# before each token (at 40, 46 and 51; token 2 spans 55-60).
BINARY_ERRORS = {
    "cut header": (lambda d: d[:10], "truncated header at byte 0"),
    "bad magic": (lambda d: b"BCEX" + d[4:], "not an embedding file"),
    "version 2": (lambda d: d[:4] + struct.pack("<I", 2) + d[8:],
                  "unsupported version 2"),
    "cut float block": (lambda d: d[:26], "truncated float block at byte 16"),
    "huge float block": (lambda d: d[:8] + struct.pack("<II", 1 << 30, 1 << 10)
                         + d[16:], "truncated float block at byte 16"),
    "cut length prefix": (lambda d: d[:42],
                          "truncated length of token 0 at byte 40"),
    "cut last 3 bytes": (lambda d: d[:-3], "truncated token 2 at byte 55"),
    "cut last 5 bytes": (lambda d: d[:-5], "truncated token 2 at byte 55"),
    "trailing bytes": (lambda d: d + b"\0\0", "2 trailing bytes at byte 60"),
}


@pytest.mark.parametrize("case", sorted(BINARY_ERRORS))
def test_binary_reader_error_messages(tmp_path, traced_peak, case):
    damage, message = BINARY_ERRORS[case]
    path = tmp_path / "emb.bin"
    write_embeddings_binary(np.ones((3, 2)), ["ab", "c", OOV_TOKEN], path)
    data = path.read_bytes()
    assert len(data) == 60
    path.write_bytes(damage(data))
    with traced_peak() as peak:
        with pytest.raises(ValueError) as err:
            read_embeddings_binary(path)
    assert str(err.value) == f"{path}: {message}"
    # refused before anything the size of the declared float block is made
    assert peak.bytes < 1 << 20


def test_escaping_round_trips_odd_tokens(tmp_path):
    rows = np.eye(4)
    tokens = ["a b", "100%", "tab\tsep", OOV_TOKEN]
    path = tmp_path / "emb.txt"
    write_embeddings_text(rows, tokens, path)
    back, back_tokens = read_embeddings_text(path)
    assert back_tokens == tokens
    # every written token stays a single whitespace-free field
    for line in path.read_text().splitlines()[1:]:
        assert len(line.split()) == 5


@given(st.text(max_size=20))
def test_escape_unescape_identity(token):
    assert unescape_token(escape_token(token)) == token
    escaped = escape_token(token)
    assert " " not in escaped
    assert "\t" not in escaped
    assert "\n" not in escaped


_ESCAPES = {"%": "%25", " ": "%20", "\t": "%09", "\n": "%0A", "\r": "%0D"}


def _escape_by_passes(token):
    """The multi-pass escaping the text format was first written with, kept
    as the reference: '%' first, so no later code is escaped again."""
    out = token.replace("%", "%25")
    for ch, repl in _ESCAPES.items():
        if ch != "%":
            out = out.replace(ch, repl)
    return out


def _unescape_by_passes(token):
    """The reference inverse: split on the escaped '%', decode the other
    codes in each part, and join the parts with a literal '%'."""
    decoded = []
    for part in token.split("%25"):
        for ch, code in _ESCAPES.items():
            if ch != "%":
                part = part.replace(code, ch)
        decoded.append(part)
    return "%".join(decoded)


@pytest.mark.parametrize("token", ["%2520", "%%20", "%%250A", "%0a", "a%20b",
                                   "", "%", "a b\tc\r\n%"])
def test_escaping_matches_reference_passes(token):
    assert escape_token(token) == _escape_by_passes(token)
    assert unescape_token(token) == _unescape_by_passes(token)


# single characters, and the codes with and without their '%', so that
# nested codes such as "%2520" come up often
_CODE_TEXT = st.lists(st.sampled_from(
    list("%2509ADa \t\r\n") + [c[i:] for c in _ESCAPES.values()
                                for i in (0, 1)]), max_size=12).map("".join)


@given(_CODE_TEXT)
def test_escaping_matches_reference_passes_on_code_text(token):
    assert escape_token(token) == _escape_by_passes(token)
    assert unescape_token(token) == _unescape_by_passes(token)


def test_collision_after_escaping_rejected(tmp_path):
    rows = np.eye(2)
    with pytest.raises(ValueError, match="collision"):
        write_embeddings_text(rows, ["dup", "dup"], tmp_path / "x.txt")


@pytest.mark.parametrize("writer", [write_embeddings_text,
                                    write_embeddings_binary])
def test_repeated_tokens_report_names_output_path(tmp_path, writer):
    # 20,000 copies of one token: counting each token's copies one by one
    # would take seconds here
    tokens = ["dup"] * 20_000 + ["a", "a", OOV_TOKEN]
    path = tmp_path / "x.emb"
    with pytest.raises(ValueError) as info:
        writer(np.zeros((len(tokens), 1)), tokens, path)
    assert str(info.value) == (f"{path}: token collision after escaping: "
                               "['a', 'dup']")
    assert not path.exists()


@pytest.mark.parametrize("token", ["", "a\xa0b", "\x0b", "x\u2028"])
def test_text_writer_rejects_unescapable_token(tmp_path, token):
    path = tmp_path / "x.txt"
    with pytest.raises(ValueError) as info:
        write_embeddings_text(np.eye(3), ["ok", token, OOV_TOKEN], path)
    assert str(info.value).startswith(f"{path}: row 1 token {token!r} ")
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e39])
def test_binary_writer_refuses_a_value_float32_cannot_hold(tmp_path, bad):
    tokens = ["a", "b", OOV_TOKEN]
    # float32's largest value fits, though a float32 sum of a row would not
    rows = np.full((3, 2), np.finfo(np.float32).max, dtype=np.float64)
    write_embeddings_binary(rows, tokens, tmp_path / "max.bin")
    rows[2, 1] = bad
    path = tmp_path / "x.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            write_embeddings_binary(rows, tokens, path)
    assert str(info.value) == (f"{path}: row 2 token {OOV_TOKEN!r} holds a "
                               "value that is not finite in float32")
    assert not path.exists()


def test_sniffing_reader(tmp_path):
    rows = np.ones((2, 3), dtype=np.float32)
    tokens = ["a", OOV_TOKEN]
    text_path = tmp_path / "emb.txt"
    bin_path = tmp_path / "emb.bin"
    write_embeddings_text(rows, tokens, text_path)
    write_embeddings_binary(rows, tokens, bin_path)
    t_rows, t_tokens = read_embeddings(text_path)
    b_rows, b_tokens = read_embeddings(bin_path)
    assert t_tokens == b_tokens == tokens
    assert np.allclose(t_rows, b_rows)


@pytest.mark.parametrize("binary", [False, True])
def test_reader_names_the_first_non_finite_row_past_a_block(tmp_path,
                                                            binary):
    rows = np.ones((600, 3))
    tokens = [f"t{i}" for i in range(599)] + [OOV_TOKEN]
    path = tmp_path / "emb"
    if binary:
        write_embeddings_binary(rows, tokens, path)
        data = bytearray(path.read_bytes())
        for row, col, value in ((300, 1, np.nan), (500, 0, np.inf)):
            at = 16 + 4 * (3 * row + col)  # after the header, float32 values
            data[at:at + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
    else:
        rows[300, 1], rows[500, 0] = np.nan, np.inf
        write_embeddings_text(rows, tokens, path)
    with pytest.raises(ValueError) as err:
        read_embeddings(path)
    assert str(err.value) == (f"{path}: row 300 ('t300') holds a "
                              "non-finite value")


def test_row_tokens_and_vocabulary_round_trip():
    vocab = Vocabulary(("x", "y"), {"x": 0, "y": 1})
    tokens = row_tokens(vocab)
    assert tokens == ["x", "y", OOV_TOKEN]
    back = vocabulary_from_tokens(tokens)
    assert back.ranked == vocab.ranked
    assert back.index == vocab.index
    assert back.oov_index == 2


def test_vocabulary_from_tokens_requires_oov_last():
    with pytest.raises(ValueError):
        vocabulary_from_tokens(["a", "b"])


# ---------------------------------------------------------------------------
# the text reader: the per-line reader it replaced, and its error messages
# ---------------------------------------------------------------------------

def reference_read_text(path):
    """The per-line ``float()`` reader that numpy's ``loadtxt`` replaced,
    kept as the oracle for valid files."""
    with open(path, encoding="utf-8") as src:
        n, dim = map(int, src.readline().split())
        rows = np.empty((n, dim))
        tokens = []
        for i in range(n):
            parts = src.readline().split()
            assert len(parts) == dim + 1
            tokens.append(unescape_token(parts[0]))
            rows[i] = [float(v) for v in parts[1:]]
        assert not src.read(1)
    return rows, tokens


VALUES = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -1.5e-300, 2.5e300, 123456789.0])


@st.composite
def text_embedding_files(draw):
    """A valid text embedding file: values written with ``%.6g`` or
    ``repr``, fields split by runs of spaces and tabs, lines ended by LF or
    CRLF (the last one too), and tokens that need escaping."""
    n, dim = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    fmt = draw(st.sampled_from(["%.6g", "%r"]))
    gap = st.sampled_from([" ", "\t", "   ", " \t ", "\t\t"])
    edge = st.sampled_from(["", " ", "\t", "  \t"])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{n} {dim}"]
    for _ in range(n):
        token = escape_token(draw(st.text("ab% \té", min_size=1, max_size=4)))
        fields = [token] + [fmt % draw(VALUES) for _ in range(dim)]
        line = fields[0]
        for value in fields[1:]:
            line += draw(gap) + value
        lines.append(draw(edge) + line + draw(edge))
    return eol.join(lines) + eol


@given(text_embedding_files())
def test_text_reader_matches_per_line_reference(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.txt"
        path.write_bytes(content.encode("utf-8"))
        rows, tokens = read_embeddings_text(path)
        want_rows, want_tokens = reference_read_text(path)
    assert rows.dtype == np.float64
    assert rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    # bit-identical: -0.0 and 0.0 compare equal
    assert np.array_equal(np.signbit(rows), np.signbit(want_rows))
    assert tokens == want_tokens


TEXT_ERRORS = {
    "blank line": ("3 2\na 1 2\n\nb 3 4\n", "row 1 is blank"),
    "blank first row": ("2 2\n\na 1 2\n", "row 0 is blank"),
    "whitespace line": ("2 2\na 1 2\n \t \n", "row 1 is blank"),
    "short row": ("2 2\na 1 2\nb 3\n", "row 1 has 1 values, expected 2"),
    "short first row": ("2 2\na 1\nb 3 4\n", "row 0 has 1 values, expected 2"),
    "long row": ("2 2\na 1 2\nb 3 4 5\n", "row 1 has 3 values, expected 2"),
    "long rows": ("2 2\na 1 2 3\nb 3 4 5\n", "row 0 has 3 values, expected 2"),
    "too few rows": ("3 2\na 1 2\nb 3 4\n",
                     "ends before row 2 of the 3 rows its header declares"),
    "no rows": ("1 2\n",
                "ends before row 0 of the 1 rows its header declares"),
    "too many rows": ("1 2\na 1 2\nb 3 4\n",
                      "text after row 0: the header declares 1 rows"),
    "text after no rows": ("0 2\na 1 2\n",
                           "text after the header, which declares 0 rows"),
    "trailing blank line": ("1 2\na 1 2\n\n",
                            "text after row 0: the header declares 1 rows"),
    "bad float": ("2 2\na 1 2\nb 3 x\n",
                  "row 1: could not convert string to float: 'x'"),
    "hex": ("2 2\na 1 2\nb 0x10 4\n",
            "row 1: could not convert string to float: '0x10'"),
    "malformed header": ("2\na 1 2\n",
                         "malformed header '2', expected '<rows> <dim>'"),
    "cut last value": ("2 2\na 1 2\nb 3 0.5", "row 1 ends at byte 17 without "
                       "a newline; the file may be truncated"),
    "cut first row": ("2 2\na 1", "row 0 ends at byte 7 without a newline; "
                      "the file may be truncated"),
    "cut header": ("0 2", "the header ends at byte 3 without a newline; the "
                   "file may be truncated"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(TEXT_ERRORS))
def test_text_reader_error_messages(tmp_path, case):
    content, message = TEXT_ERRORS[case]
    path = tmp_path / "emb.txt"
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        read_embeddings_text(path)
    assert str(info.value) == f"{path}: {message}"


def test_walker_messages_do_not_depend_on_loadtxt_reraising(tmp_path,
                                                           monkeypatch):
    # numpy 2.4 re-raises the line iterator's exception unchanged; a numpy
    # that wrapped it must not change the message, which the re-read gives
    loadtxt = np.loadtxt

    def wrapping(*args, **kwargs):
        try:
            return loadtxt(*args, **kwargs)
        except Exception as exc:
            raise ValueError("loadtxt failed") from exc

    monkeypatch.setattr(np, "loadtxt", wrapping)
    for case in ("cut last value", "too many rows", "blank line",
                 "too few rows"):
        content, message = TEXT_ERRORS[case]
        path = tmp_path / "emb.txt"
        path.write_text(content)
        with pytest.raises(ValueError) as info:
            read_embeddings_text(path)
        assert str(info.value) == f"{path}: {message}"


def test_text_reader_refuses_underscore_digits_by_name(tmp_path):
    # float() reads "1_0" as 10; numpy's parser, and so the reader, refuse it
    path = tmp_path / "emb.txt"
    path.write_text("2 2\na 1 2\nb 1_0 4\n")
    with pytest.raises(ValueError) as info:
        read_embeddings_text(path)
    assert str(info.value).startswith(f"{path}: ")


def test_text_reader_header_only_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("0 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, tokens = read_embeddings_text(path)
    assert rows.shape == (0, 3)
    assert tokens == []


# ---------------------------------------------------------------------------
# the text writer's second process
# ---------------------------------------------------------------------------

STRAY_CHILD = 70


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test here leaves no child to reap. A forked writer that
    returns into the test instead of exiting would run the rest of the
    session a second time; it ends here, with a status the writer's error
    message shows."""
    pid = os.getpid()
    yield
    if os.getpid() != pid:
        os._exit(STRAY_CHILD)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Give the writer two CPUs and record each fork it makes."""
    made = []
    fork = os.fork

    def counted_fork():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return made


def _odd_rows(n, dim=5):
    """Rows of mixed magnitudes, and tokens that need escaping."""
    rows = np.random.default_rng(n).normal(size=(n, dim)) * 10.0 ** (
        np.arange(dim) % 7 - 3)
    tokens = [f"t{i}%" + ("x y" if i % 2 else "a\tb") for i in range(n - 1)]
    return rows, (tokens + [OOV_TOKEN] if n else [])


def _one_process_text(rows, tokens, path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedio, "_second_cpu", lambda: False)
        write_embeddings_text(rows, tokens, path)
    return path.read_bytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 101])
def test_split_text_writer_matches_one_process(tmp_path, monkeypatch, forks,
                                               n):
    rows, tokens = _odd_rows(n)
    want = _one_process_text(rows, tokens, tmp_path / "one.txt")
    monkeypatch.setattr(embedio, "_SPLIT_VALUES", 0)
    path = tmp_path / "two.txt"
    write_embeddings_text(rows, tokens, path)
    assert forks == [os.getpid()]
    assert path.read_bytes() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.txt", "two.txt"]


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity", "one cpu"])
def test_text_writer_falls_back_to_one_process(tmp_path, monkeypatch, missing):
    rows, tokens = _odd_rows(101)
    want = _one_process_text(rows, tokens, tmp_path / "one.txt")
    monkeypatch.setattr(embedio, "_SPLIT_VALUES", 0)
    if missing == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    else:
        monkeypatch.delattr(os, missing, raising=False)
    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", pytest.fail)
    path = tmp_path / "emb.txt"
    write_embeddings_text(rows, tokens, path)
    assert path.read_bytes() == want


def test_export_text_above_the_threshold_matches_one_process(tmp_path,
                                                            forks):
    n = embedio._SPLIT_VALUES // 100 + 1
    rows, tokens = _odd_rows(n, dim=100)
    assert rows.size >= embedio._SPLIT_VALUES
    source = tmp_path / "emb.bin"
    write_embeddings_binary(rows, tokens, source)

    def export(name):
        out = tmp_path / name
        assert main(["export", str(source), "--out", str(out),
                     "--format", "text"]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        return out.read_bytes(), manifest["outputs"]["embeddings"]["sha256"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedio, "_second_cpu", lambda: False)
        want = export("one.txt")
    assert not forks
    assert export("two.txt") == want
    assert len(forks) == 1


def test_failed_child_exits_2_and_leaves_no_file(tmp_path, monkeypatch,
                                                  capsys, forks):
    rows, tokens = _odd_rows(101)
    source = tmp_path / "emb.bin"
    write_embeddings_binary(rows, tokens, source)
    write_rows, pid = embedio._write_rows, os.getpid()

    def child_fails(*args):
        if os.getpid() != pid:
            raise OSError("the child's half failed")
        write_rows(*args)

    monkeypatch.setattr(embedio, "_write_rows", child_fails)
    monkeypatch.setattr(embedio, "_SPLIT_VALUES", 0)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "emb.txt"
    assert main(["export", str(source), "--out", str(out),
                 "--format", "text"]) == 2
    assert capsys.readouterr().err == (
        f"error: {out}: the process writing rows 50 to 100 failed "
        "(exit status 1)\n")
    assert forks == [pid]
    assert list(out_dir.iterdir()) == []


def test_failed_parent_half_kills_and_reaps_the_child(tmp_path, monkeypatch,
                                                      forks):
    rows, tokens = _odd_rows(101)
    pid = os.getpid()

    def parent_fails(*args):
        if os.getpid() == pid:
            raise OSError("the parent's half failed")
        time.sleep(60)

    monkeypatch.setattr(embedio, "_write_rows", parent_fails)
    monkeypatch.setattr(embedio, "_SPLIT_VALUES", 0)
    start = time.perf_counter()
    with pytest.raises(OSError, match="the parent's half failed"):
        write_embeddings_text(rows, tokens, tmp_path / "emb.txt")
    # killed, not waited for
    assert time.perf_counter() - start < 30
    assert forks == [pid]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_writer_child_flushes_no_inherited_buffer(tmp_path):
    # stdout is a pipe, so "once" sits in the interpreter's buffer at the
    # fork; a child that exited through the interpreter would flush it too
    code = ("import os, sys, numpy as np\n"
            "from bitcipher import embedio\n"
            "embedio._SPLIT_VALUES = 0\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.stdout.write('once')\n"
            "embedio.write_embeddings_text(np.eye(3), ['a', 'b', 'c'], "
            "sys.argv[1])\n")
    src = str(Path(bitcipher.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "emb.txt")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "once", "")
    assert (tmp_path / "emb.txt").read_text() == (
        "3 3\na 1 0 0\nb 0 1 0\nc 0 0 1\n")


def test_split_writer_ignores_the_fork_warning_of_python_3_12(
        tmp_path, monkeypatch, forks):
    # Python 3.12's os.fork warns in the parent of a process with threads;
    # pytest's filters turn a DeprecationWarning from bitcipher into an error
    message = (f"This process (pid={os.getpid()}) is multi-threaded, use of "
               "fork() may lead to deadlocks in the child.")
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit(message, DeprecationWarning, "embedio.py", 1,
                               module="bitcipher.embedio")
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(message, DeprecationWarning, stacklevel=2)
        return pid

    rows, tokens = _odd_rows(101)
    want = _one_process_text(rows, tokens, tmp_path / "one.txt")
    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setattr(embedio, "_SPLIT_VALUES", 0)
    path = tmp_path / "two.txt"
    write_embeddings_text(rows, tokens, path)
    assert forks == [os.getpid()]
    assert path.read_bytes() == want


def _gone(pid):
    """No process has ``pid``, or only its zombie, which nothing may reap."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads a process's state from /proc")
def test_split_writer_child_leaves_once_its_parent_is_killed(tmp_path):
    # every block of one row takes BLOCK_S, so the child's 30 rows would
    # take 15 s; the parent prints the child's pid and waits for it
    block_s = 0.5
    code = ("import os, sys, time, numpy as np\n"
            "from bitcipher import embedio\n"
            "embedio._SPLIT_VALUES = 0\n"
            "embedio._CHILD_BLOCK_ROWS = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, write_rows = os.fork, embedio._write_rows\n"
            "def telling_fork():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "def slow_rows(*args):\n"
            f"    time.sleep({block_s})\n"
            "    write_rows(*args)\n"
            "os.fork, embedio._write_rows = telling_fork, slow_rows\n"
            "embedio.write_embeddings_text(np.eye(60), "
            "[f't{i}' for i in range(60)], sys.argv[1])\n")
    src = str(Path(bitcipher.__file__).resolve().parent.parent)
    parent = subprocess.Popen(
        [sys.executable, "-c", code, str(tmp_path / "emb.txt")],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        text=True)
    child = None
    try:
        child = int(parent.stdout.readline())
        time.sleep(block_s)  # mid-write
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
