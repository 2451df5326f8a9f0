from pathlib import Path

from bitcipher.synth import generate_tagged_sentences, sentences_to_text

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_snippet() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    text = sentences_to_text(generate_tagged_sentences(2_000, seed=1))
    (tmp_path / "corpus.txt").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(_library_snippet(), scope)
    vocab, emb = scope["vocab"], scope["emb"]
    assert emb.shape == (vocab.size + 1, 25)
    assert scope["report"].steps
