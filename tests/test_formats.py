"""Every file format at its reader: invalid UTF-8, repeated tokens, and
truncated or byte-flipped files.

A damaged file must either end in a ``ValueError`` that names it, or read as
something its writer writes back: binary formats to the same bytes, text
formats to a file that reads back equal.
"""

import gzip
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bitcipher.corpus import (EncodingError, FrequencyTable, _has_magic,
                              count_frequencies, read_frequency_table,
                              stream_documents, write_frequency_table)
from bitcipher.embedio import (EMBED_MAGIC, OOV_TOKEN, read_embeddings,
                               write_embeddings_binary, write_embeddings_text)
from bitcipher.probe import load_conll

# Tokens one byte apart, so a flipped byte can make a repeat.
TOKENS = ["t0", "t1", "t2", "té", "a%20b", OOV_TOKEN]
CORPUS = "t0 t1 t2 t1, té!\nt0 t0 t2\n\nt1 té tü t0\n"


def _rows():
    rng = np.random.default_rng(3)
    return rng.random((len(TOKENS), 3)).astype(np.float32)


# ---------------------------------------------------------------------------
# invalid UTF-8 names the file and the absolute byte offset
# ---------------------------------------------------------------------------

# Each text format: a valid prefix longer than the decoder's buffer, then a
# line that starts with an invalid byte; and how to read it.
TEXT_FORMATS = {
    "frequency table": (
        "#M=9000 D=1\n" + "".join(f"w{i}\t1\t1\n" for i in range(3000)),
        "\t1\t1\n", read_frequency_table),
    "text embeddings": (
        "3001 2\n" + "".join(f"w{i} 0.5 0.25\n" for i in range(3000)),
        " 0.5 0.25\n", read_embeddings),
    "conll": ("".join(f"w{i} NOUN\n" for i in range(3000)), " NOUN\n",
              load_conll),
}


@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_text_readers_name_file_and_offset_of_invalid_utf8(tmp_path, name):
    head, tail, read = TEXT_FORMATS[name]
    prefix = head.encode()
    assert len(prefix) > 20_000
    path = tmp_path / "bad"
    path.write_bytes(prefix + b"\xff" + tail.encode())
    with pytest.raises(EncodingError) as err:
        read(path)
    assert str(err.value) == (f"{path}: invalid UTF-8 at byte offset "
                              f"{len(prefix)}")


def test_binary_embedding_token_names_file_and_offset(tmp_path):
    path = tmp_path / "emb.bin"
    write_embeddings_binary(np.ones((2, 2)), ["ab", OOV_TOKEN], path)
    data = bytearray(path.read_bytes())
    at = 16 + 2 * 2 * 4 + 4 + 1  # header, floats, length of token 0, "a"
    data[at] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(EncodingError) as err:
        read_embeddings(path)
    assert str(err.value) == f"{path}: invalid UTF-8 at byte offset {at}"


# ---------------------------------------------------------------------------
# repeated tokens
# ---------------------------------------------------------------------------

def test_text_embeddings_reject_repeated_token(tmp_path):
    # "%" and "%25" both unescape to "%"
    path = tmp_path / "emb.txt"
    path.write_text("3 1\n% 1\n%25 2\n<oov> 0\n")
    with pytest.raises(ValueError) as err:
        read_embeddings(path)
    assert str(err.value) == f"{path}: row 1 token '%' repeats row 0"


def test_binary_embeddings_reject_repeated_token(tmp_path):
    path = tmp_path / "emb.bin"
    write_embeddings_binary(np.eye(4), ["a", "b", "c", OOV_TOKEN], path)
    data = path.read_bytes()
    tokens_at = 16 + 4 * 4 * 4
    table = data[tokens_at:].replace(struct.pack("<I", 1) + b"c",
                                     struct.pack("<I", 1) + b"a")
    path.write_bytes(data[:tokens_at] + table)
    with pytest.raises(ValueError) as err:
        read_embeddings(path)
    assert str(err.value) == f"{path}: row 2 token 'a' repeats row 0"


# ---------------------------------------------------------------------------
# fuzz: truncated and byte-flipped files
# ---------------------------------------------------------------------------

def _write_corpus(documents, source, path):
    path.write_text("".join(" ".join(doc) + "\n" for doc in documents),
                    encoding="utf-8")


def _read_corpus(path):
    return list(stream_documents(path))


def _embedding_format(writer):
    """Embeddings written by ``writer``; read back by the sniffing reader
    and rewritten in the format it sniffed."""
    def sample(path):
        writer(_rows(), TOKENS, path)

    def rewrite(value, source, path):
        if _has_magic(source, EMBED_MAGIC):
            write_embeddings_binary(*value, path)
        else:
            write_embeddings_text(*value, path)

    return sample, read_embeddings, rewrite


def _table_sample(path):
    table = count_frequencies(stream_documents(CORPUS.encode()))
    write_frequency_table(table, path)


def _gzip_sample(path):
    path.write_bytes(gzip.compress(CORPUS.encode(), mtime=0))


# name -> (write a sample file, read a file, write what was read)
FORMATS = {
    "BCEM": _embedding_format(write_embeddings_binary),
    "text embeddings": _embedding_format(write_embeddings_text),
    "frequency table": (_table_sample, read_frequency_table,
                        lambda value, source, path:
                        write_frequency_table(value, path)),
    "gzip corpus": (_gzip_sample, _read_corpus, _write_corpus),
}


def _equal(a, b):
    """Equality of what two reads returned; text values to 6 digits."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.allclose(a, b, rtol=1e-5, atol=0)
    return a == b


def _damage(data, draw):
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    damaged = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        damaged[draw(st.integers(0, len(data) - 1))] ^= draw(
            st.integers(1, 255))
    return bytes(damaged)


@pytest.mark.parametrize("name", sorted(FORMATS))
@given(data=st.data())
def test_damaged_file_is_refused_by_name_or_round_trips(name, data):
    sample, read, rewrite = FORMATS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "damaged", Path(tmp) / "again"
        sample(path)
        path.write_bytes(_damage(path.read_bytes(), data.draw))
        try:
            value = read(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
        rewrite(value, path, again)
        assert _equal(read(again), value)
        if _has_magic(path, EMBED_MAGIC):
            assert again.read_bytes() == path.read_bytes()
        else:
            # text written from what was read is a fixed point
            text = again.read_bytes()
            rewrite(read(again), again, path)
            assert path.read_bytes() == text


# ---------------------------------------------------------------------------
# truncation: every strict prefix of a written file is refused by name
# ---------------------------------------------------------------------------

def _prefix_text_sample(path):
    # the last value has 6 significant digits, so most cuts inside it would
    # still parse as a number
    rows = np.array([[0.5, -0.25], [1.5, 2.0], [0.25, 0.123456]])
    write_embeddings_text(rows, ["a", "b", OOV_TOKEN], path)
    assert path.read_bytes().endswith(b" 0.123456\n")


def _prefix_binary_sample(path):
    write_embeddings_binary(_rows(), TOKENS, path)


def _prefix_table_sample(path):
    # the last d has 2 digits: "cat\t40\t12" cut to "cat\t40\t1" keeps the
    # f column's sum
    write_frequency_table(FrequencyTable({"the": (60, 20), "cat": (40, 12)},
                                         100, 20), path)
    assert path.read_bytes().endswith(b"cat\t40\t12\n")


# name -> (write a sample, read a file, how the refusal of each non-empty
# prefix begins after the path): a file cut inside its magic number is
# refused by its own format's reader
PREFIX_SAMPLES = {
    "text embeddings": (_prefix_text_sample, read_embeddings, ""),
    "binary embeddings": (_prefix_binary_sample, read_embeddings,
                          ": truncated "),
    "frequency table": (_prefix_table_sample, read_frequency_table, ""),
    "gzip corpus": (_gzip_sample, _read_corpus, ": corrupt gzip data "),
}


@pytest.mark.parametrize("name", sorted(PREFIX_SAMPLES))
def test_every_strict_prefix_is_refused_by_name(tmp_path, name):
    sample, read, refusal = PREFIX_SAMPLES[name]
    whole, path = tmp_path / "whole", tmp_path / "cut"
    sample(whole)
    read(whole)
    data = whole.read_bytes()
    for size in range(len(data)):
        path.write_bytes(data[:size])
        if not size and name == "gzip corpus":
            assert read(path) == []  # an empty plain corpus
            continue
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(path) in str(err.value), size
        if size:
            assert str(err.value).startswith(f"{path}{refusal}"), size


# ---------------------------------------------------------------------------
# line ends: "\n" and "\r\n" end a line, a lone "\r" does not; no gzip
# ---------------------------------------------------------------------------

# Each format written with a lone "\r" after every line: one line.
LONE_CR = {
    "frequency table": ("#M=3 D=1\ra\t2\t1\rb\t1\t1\r", read_frequency_table,
                        ":1: a lone carriage return"),
    "text embeddings": ("2 2\ra 1 2\r<oov> 3 4\r", read_embeddings,
                        ": malformed header"),
    # split on whitespace as one line, this would read as the single token
    # ("a", "DET")
    "conll": ("a NOUN\rb VERB\rc DET\r", load_conll,
              ":1: a lone carriage return"),
    # a lone "\r" beside "\n" line ends, where a row would read as the
    # token "\rb" or the count "\r1"
    "frequency table, mixed": ("#M=3 D=1\na\t2\t1\n\rb\t1\t1\n",
                               read_frequency_table,
                               ":3: a lone carriage return"),
    "frequency table, in a count": ("#M=3 D=1\na\t2\t1\nb\t\r1\t1\r\n",
                                    read_frequency_table,
                                    ":3: a lone carriage return"),
}


@pytest.mark.parametrize("name", sorted(LONE_CR))
def test_lone_carriage_return_is_refused_by_name(tmp_path, name):
    content, read, message = LONE_CR[name]
    path = tmp_path / "lone-cr"
    path.write_bytes(content.encode())
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}{message}")


@pytest.mark.parametrize("row", ["a 1 2\rb 3 4\n", "\ra 1 2\n"],
                         ids=["inside", "leading"])
def test_text_embeddings_refuse_a_lone_carriage_return_in_a_row(tmp_path,
                                                                row):
    # numpy's C loadtxt (1.23+) refuses a "\r" inside a line it is handed
    path = tmp_path / "emb.txt"
    path.write_bytes(f"2 2\n{row}<oov> 3 4\n".encode())
    with pytest.raises(ValueError) as err:
        read_embeddings(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_text_formats_refuse_gzip(tmp_path, name):
    head, _, read = TEXT_FORMATS[name]
    path = tmp_path / "zipped"
    path.write_bytes(gzip.compress(head.encode(), mtime=0))
    with pytest.raises(EncodingError) as err:
        read(path)
    assert str(err.value) == f"{path}: invalid UTF-8 at byte offset 1"
