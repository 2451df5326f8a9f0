import shlex
from pathlib import Path

from bitcipher.cli import main
from bitcipher.synth import generate_tagged_sentences, sentences_to_text

README = Path(__file__).resolve().parent.parent / "README.md"


def _snippet(heading: str, language: str) -> str:
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    text = sentences_to_text(generate_tagged_sentences(2_000, seed=1))
    (tmp_path / "corpus.txt").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(_snippet("Library", "python"), scope)
    vocab, emb = scope["vocab"], scope["emb"]
    assert emb.shape == (vocab.size + 1, 25)
    assert scope["report"].steps


def _cli_commands() -> list[list[str]]:
    """The commands of the README's command-line block, one argv each."""
    text = _snippet("Command line", "bash").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    return [argv for argv in commands if argv]


def test_readme_command_line_runs(tmp_path, monkeypatch):
    sentences = generate_tagged_sentences(2_000, seed=1)
    (tmp_path / "corpus.txt").write_text(sentences_to_text(sentences),
                                         encoding="utf-8")
    for name, part in [("train", sentences[:60]), ("dev", sentences[60:80]),
                       ("test", sentences[80:100])]:
        (tmp_path / f"{name}.conll").write_text(
            "".join("".join(f"{token} {tag}\n" for token, tag in sentence)
                    + "\n" for sentence in part), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = _cli_commands()
    assert [argv[:2] for argv in commands] == [
        ["bitcipher", command]
        for command in ("count", "embed", "postproc", "probe", "export")]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    for output in ["freq.tsv", "emb.txt", "emb_refined.txt", "metrics.json",
                   "emb.bin"]:
        assert (tmp_path / f"{output}.manifest.json").is_file(), output
