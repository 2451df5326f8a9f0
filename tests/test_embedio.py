import numpy as np
import pytest
from hypothesis import given, strategies as st

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
