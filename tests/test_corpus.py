import gzip
import random
import re
import sys
from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from bitcipher.corpus import (OOV_TOKEN, EncodingError, FrequencyTable,
                              TokenizerConfig, build_vocabulary,
                              count_frequencies, read_frequency_table,
                              stream_documents, stream_tokens, tokenize_line,
                              write_frequency_table)


def test_stream_basic_line():
    out = list(stream_tokens(b"The cat sat.\n"))
    assert out == [(0, "the"), (0, "cat"), (0, "sat"), (0, ".")]


def test_stream_empty_input():
    assert list(stream_tokens(b"")) == []


def test_stream_doc_ids_per_line():
    out = list(stream_tokens(b"a b\nb c"))
    assert [doc for doc, _ in out] == [0, 0, 1, 1]
    assert [tok for _, tok in out] == ["a", "b", "b", "c"]
    # an empty line is a document too, so it takes an id
    assert [doc for doc, _ in stream_tokens(b"a\n\nb")] == [0, 2]


def test_stream_blank_line_boundary():
    config = TokenizerConfig(doc_boundary="blank")
    out = list(stream_tokens(b"a b\nc\n\n\nd e\n", config))
    assert out == [(0, "a"), (0, "b"), (0, "c"), (1, "d"), (1, "e")]


def test_stream_documents_keeps_empty_lines():
    assert list(stream_documents(b"a b\n\nc\n")) == [["a", "b"], [], ["c"]]


def test_stream_documents_blank_mode_skips_empty_blocks():
    config = TokenizerConfig(doc_boundary="blank")
    text = b"\n\na\nb c\n \n\t\n\nd\n\n"
    assert list(stream_documents(text, config)) == [["a", "b", "c"], ["d"]]


def _tokenize_by_characters(text, config):
    """The character-loop splitter the regex replaced, kept as the oracle."""
    if config.lowercase:
        text = text.lower()
    if not config.split_punctuation:
        return text.split()
    tokens, run, run_is_word = [], [], False
    for ch in text:
        if ch.isspace():
            if run:
                tokens.append("".join(run))
                run = []
            continue
        is_word = ch.isalnum()
        if run and is_word != run_is_word:
            tokens.append("".join(run))
            run = []
        run.append(ch)
        run_is_word = is_word
    if run:
        tokens.append("".join(run))
    return tokens


def test_token_regex_classes_match_str_predicates():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\w", every)) == \
        {c for c in every if c.isalnum() or c == "_"}
    assert set(re.findall(r"\s", every)) == {c for c in every if c.isspace()}


# Characters where a regex class and a str predicate could plausibly part:
# underscore, superscript digit, combining marks, non-ASCII and control
# spaces, a capital whose lowercase is two characters, a titlecase letter.
_TRICKY = "_²\u0301\u0308\u00a0\u2003\u3000\x1c\x85\u2028İǅ٣.-'"


@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_TRICKY)),
               max_size=40),
       st.booleans(), st.booleans())
def test_tokenize_matches_character_loop(text, lowercase, split_punctuation):
    config = TokenizerConfig(lowercase=lowercase,
                             split_punctuation=split_punctuation)
    assert tokenize_line(text, config) == _tokenize_by_characters(text, config)


def test_tokenize_punctuation_runs():
    config = TokenizerConfig()
    assert tokenize_line("Don't stop...", config) == ["don", "'", "t", "stop", "..."]
    assert tokenize_line("x=1;y=2", config) == ["x", "=", "1", ";", "y", "=", "2"]


def test_tokenize_whitespace_only_mode():
    config = TokenizerConfig(split_punctuation=False)
    assert tokenize_line("The cat sat.", config) == ["the", "cat", "sat."]


def test_tokenize_no_lowercase():
    config = TokenizerConfig(lowercase=False)
    assert tokenize_line("The CAT", config) == ["The", "CAT"]


def test_stream_invalid_utf8_reports_offset():
    with pytest.raises(EncodingError) as err:
        list(stream_tokens(b"ok\n\xffbad\n"))
    assert err.value.offset == 3
    assert "byte offset 3" in str(err.value)


def test_stream_gzip_transparent(tmp_path):
    text = "the cat\nsat down\n"
    plain = tmp_path / "c.txt"
    plain.write_text(text)
    zipped = tmp_path / "c.txt.gz"
    with gzip.open(zipped, "wt") as out:
        out.write(text)
    assert list(stream_tokens(plain)) == list(stream_tokens(zipped))


def test_count_basic():
    table = count_frequencies([["a", "a"], ["a", "b"]])
    assert table.counts["a"] == (3, 2)
    assert table.counts["b"] == (1, 1)
    assert table.total_tokens == 4
    assert table.total_documents == 2


def test_count_single_token():
    table = count_frequencies([["x"]])
    assert table.counts["x"] == (1, 1)
    assert table.total_tokens == 1
    assert table.total_documents == 1


def test_count_empty_stream():
    table = count_frequencies([])
    assert table == count_frequencies([[], []])
    assert table.counts == {}
    assert table.total_tokens == 0
    assert table.total_documents == 0


def _brute_force_count(text):
    """Independent recount: regex tokenization plus plain dict counting.

    The regex classes are exact for the ASCII-only fixture corpora used
    below.
    """
    f = defaultdict(int)
    docs = defaultdict(set)
    total = 0
    doc_ids = set()
    for doc_id, line in enumerate(text.split("\n")):
        tokens = re.findall(r"[0-9a-z]+|[^\s0-9a-z]+", line.lower())
        if tokens:
            doc_ids.add(doc_id)
        for w in tokens:
            f[w] += 1
            total += 1
            docs[w].add(doc_id)
    return dict(f), {w: len(s) for w, s in docs.items()}, total, len(doc_ids)


def test_count_matches_brute_force_recount(write_corpus):
    rng = random.Random(7)
    words = ["alpha", "beta", "gamma", "delta", "x1", "...", "y,z"]
    lines = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 12)))
             for _ in range(10)]
    text = "\n".join(lines) + "\n"
    path = write_corpus(text)
    table = count_frequencies(stream_documents(path))
    f, d, total, n_docs = _brute_force_count(text)
    assert table.total_tokens == total
    assert table.total_documents == n_docs
    assert {t: fc for t, (fc, _) in table.counts.items()} == dict(f)
    assert {t: dc for t, (_, dc) in table.counts.items()} == d


def test_vocabulary_tie_break_lexicographic():
    table = FrequencyTable({"a": (5, 1), "c": (3, 1), "b": (3, 1)}, 11, 1)
    vocab = build_vocabulary(table, bits=5)
    assert vocab.ranked == ("a", "b", "c")


def test_vocabulary_capacity_cap():
    counts = {f"t{i:02d}": (40 - i, 1) for i in range(40)}
    table = FrequencyTable(counts, sum(40 - i for i in range(40)), 1)
    vocab = build_vocabulary(table, bits=5)
    assert vocab.size == 31
    assert vocab.row_for("t35") == vocab.oov_index
    assert vocab.row_for("t00") == 0


def test_vocabulary_max_vocab_cap():
    table = FrequencyTable({"a": (3, 1), "b": (2, 1), "c": (1, 1)}, 6, 1)
    vocab = build_vocabulary(table, bits=5, max_vocab=2)
    assert vocab.size == 2
    assert vocab.row_for("c") == vocab.oov_index


def test_vocabulary_never_keeps_the_oov_label():
    # the most frequent token is the OOV row's label: it gets no row
    table = FrequencyTable({OOV_TOKEN: (5, 1), "a": (3, 1), "b": (2, 1)},
                           10, 1)
    vocab = build_vocabulary(table, bits=2, max_vocab=2)
    assert vocab.ranked == ("a", "b")
    assert vocab.row_for(OOV_TOKEN) == vocab.oov_index


def test_vocabulary_errors():
    table = FrequencyTable({"a": (1, 1)}, 1, 1)
    with pytest.raises(ValueError):
        build_vocabulary(table, bits=0)
    with pytest.raises(ValueError):
        build_vocabulary(FrequencyTable({}, 0, 0), bits=5)


@pytest.mark.parametrize("max_vocab", [0, -1, -3])
def test_vocabulary_rejects_max_vocab_below_one(max_vocab):
    table = FrequencyTable({"a": (3, 1), "b": (2, 1), "c": (1, 1)}, 6, 1)
    with pytest.raises(ValueError, match=f"max_vocab must be >= 1, got "
                                         f"{max_vocab}"):
        build_vocabulary(table, bits=5, max_vocab=max_vocab)


def test_vocabulary_index_bijection():
    counts = {f"w{i}": (100 - i, 1) for i in range(20)}
    table = FrequencyTable(counts, sum(100 - i for i in range(20)), 1)
    vocab = build_vocabulary(table, bits=10)
    assert sorted(vocab.index.values()) == list(range(vocab.size))
    for token, row in vocab.index.items():
        assert vocab.ranked[row] == token
    assert vocab.oov_index == vocab.size


def test_frequency_table_round_trip(tmp_path):
    table = FrequencyTable({"the": (6, 3), "cat": (2, 2), "!": (1, 1)}, 9, 3)
    path = tmp_path / "freq.tsv"
    write_frequency_table(table, path)
    back = read_frequency_table(path)
    assert back == table
    header = path.read_text().splitlines()[0]
    assert header == "#M=9 D=3"


def test_counting_deterministic(write_corpus):
    path = write_corpus("the cat sat\nthe dog ran\n")
    first = count_frequencies(stream_documents(path))
    second = count_frequencies(stream_documents(path))
    assert first == second


@pytest.mark.parametrize("text,line,message", [
    ("#M=5\na\t5\t1\n", 1, "malformed header"),
    ("#M=x D=1\na\t5\t1\n", 1, "malformed header"),
    ("#M=-5 D=1\na\t5\t1\n", 1, "malformed header"),
    ("M=5 D=1\na\t5\t1\n", 1, "malformed header"),
    ("", 1, "malformed header"),
    ("#M=5 D=2\na\t3\t1\nb\t1\t1\na\t1\t1\n", 4,
     "token 'a' repeats an earlier row"),
    ("#M=5 D=2\na\tx\t1\n", 2, "malformed row"),
    ("#M=5 D=2\na\t3\t1\ntok\t0\t0\n", 3,
     "counts f=0 d=0 break 1 <= d <= f <= M=5"),
    ("#M=5 D=2\ntok\t-1\t1\n", 2, "counts f=-1 d=1 break"),
    ("#M=5 D=2\ntok\t2\t3\n", 2, "counts f=2 d=3 break"),
    ("#M=5 D=2\ntok\t6\t1\n", 2, "counts f=6 d=1 break"),
], ids=["no_d", "non_integer", "negative", "no_hash", "empty",
        "repeated_token", "bad_row", "zero_counts", "negative_f",
        "d_above_f", "f_above_m"])
def test_read_frequency_table_names_path_and_line(tmp_path, text, line,
                                                  message):
    path = tmp_path / "freq.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_frequency_table(path)
    assert str(exc.value).startswith(f"{path}:{line}: ")
    assert message in str(exc.value)
