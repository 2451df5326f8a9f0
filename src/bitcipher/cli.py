"""Command-line pipeline: count, embed, postproc, probe, export."""

from __future__ import annotations

import argparse
import sys
import traceback
from contextlib import contextmanager
from dataclasses import asdict, fields
from itertools import chain

from . import __version__
from .cipher import (build_cipher, build_noise_model, cipher_capacity,
                     save_cipher)
from .cooc import ContextConfig, embed_corpus
from .corpus import (OOV_TOKEN, TokenizerConfig, build_vocabulary,
                     count_corpus, intern_documents, interned_frequencies,
                     read_frequency_table, stream_documents,
                     write_frequency_table)
from .embedio import (read_embeddings, row_tokens, vocabulary_from_tokens,
                      write_embeddings_binary, write_embeddings_text)
from .manifest import publish, sidecar, write_json
from .postprocess import DEFAULT_EPSILON, check_epsilon, pipeline
from .probe import (ProbeHyperparams, evaluate_probe, label_ids, load_conll,
                    train_probe)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


def _add_tokenizer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-lowercase", action="store_true",
                        help="keep original casing")
    parser.add_argument("--no-split-punct", action="store_true",
                        help="split on whitespace only")
    parser.add_argument("--doc-boundary", choices=("line", "blank"),
                        default="line",
                        help="document boundary rule (default: %(default)s)")


def _tokenizer_config(args) -> TokenizerConfig:
    return TokenizerConfig(lowercase=not args.no_lowercase,
                           split_punctuation=not args.no_split_punct,
                           doc_boundary=args.doc_boundary)


def _write_embeddings(rows, tokens, path, fmt: str) -> None:
    writer = write_embeddings_text if fmt == "text" else write_embeddings_binary
    writer(rows, tokens, path)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@contextmanager
def _named(source):
    """Prefix ``source``, the input at fault, to a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _check_table(counted, table, corpus, freq) -> None:
    """Refuse ``table``, read from ``freq``, unless it holds ``counted``, the
    counts of ``corpus``. The message names the first difference: in f,
    token by token in first-seen order, then in D, then in d."""
    if (counted.counts == table.counts
            and counted.total_documents == table.total_documents):
        return
    mismatch = ("the frequency table belongs to another corpus or was "
                "counted with other tokenizer flags")
    for token in chain(counted.counts, table.counts):
        f = table.counts.get(token, (0, 0))[0]
        n = counted.counts.get(token, (0, 0))[0]
        if n != f:
            raise ValueError(f"token {token!r} has f={n} in {corpus} but "
                             f"f={f} in {freq}: {mismatch}")
    if counted.total_documents != table.total_documents:
        raise ValueError(f"{corpus} has D={counted.total_documents} documents "
                         f"but {freq} declares D={table.total_documents}: "
                         f"{mismatch}")
    for token, (_, n) in counted.counts.items():
        d = table.counts[token][1]
        if n != d:
            raise ValueError(f"token {token!r} has d={n} in {corpus} but "
                             f"d={d} in {freq}: {mismatch}")


def cmd_count(args) -> int:
    config = _tokenizer_config(args)
    with publish(args.out, "count",
                 {"tokenizer": asdict(config), "threads": args.threads},
                 {"corpus": args.corpus}, {"frequencies": args.out}) as temp:
        table = count_corpus(args.corpus, config)
        write_frequency_table(table, temp["frequencies"])
    print(f"counted {table.total_tokens} tokens in {table.total_documents} "
          f"documents ({len(table.counts)} distinct) -> {args.out}")
    return EXIT_OK


def cmd_embed(args) -> int:
    if args.postproc:
        check_epsilon(args.epsilon)  # before the co-occurrence pass
    inputs = {"corpus": args.corpus, "frequencies": args.freq}
    outputs = {"embeddings": args.out}
    if args.save_cipher:
        outputs["cipher"] = args.save_cipher
    if args.postproc:
        outputs["postproc_report"] = sidecar(args.out, "report")
    config = _tokenizer_config(args)
    settings = dict(bits=args.bits, radius=args.radius, mode=args.mode,
                    log=args.log, dtype=args.dtype,
                    include_center=args.include_center,
                    max_vocab=args.max_vocab, postproc=args.postproc,
                    epsilon=args.epsilon if args.postproc else None,
                    format=args.format, tokenizer=asdict(config))
    with publish(args.out, "embed", settings, inputs, outputs) as temp:
        table = read_frequency_table(args.freq)
        vocab = build_vocabulary(table, args.bits, max_vocab=args.max_vocab)
        distinct = len(table.counts)
        if OOV_TOKEN in table.counts:
            distinct -= 1
            print(f"warning: {OOV_TOKEN} is the reserved label of the "
                  f"out-of-vocabulary row; its {table.counts[OOV_TOKEN][0]} "
                  "occurrences use that row", file=sys.stderr)
        if vocab.size < distinct:
            limit = (f"capacity 2^{args.bits} - 1"
                     if vocab.size == cipher_capacity(args.bits)
                     else f"--max-vocab {args.max_vocab}")
            truncated = (f"vocabulary truncated to {vocab.size} of "
                         f"{distinct} distinct tokens ({limit})")
            if vocab.size < 2:
                raise ValueError(f"{truncated}; the noise model needs at "
                                 "least 2")
            print(f"warning: {truncated}", file=sys.stderr)
        context = ContextConfig(radius=args.radius, mode=args.mode,
                                log_weighting=args.log,
                                include_center=args.include_center)
        dim = context.output_dim(args.bits)
        if args.postproc and vocab.size < dim:
            raise ValueError(
                f"--postproc whitens dimension {dim} (--bits {args.bits} "
                f"--radius {args.radius} --mode {args.mode}), which needs at "
                f"least {dim + 1} rows, but a vocabulary of {vocab.size} "
                f"tokens gives {vocab.size + 1} with {OOV_TOKEN}")
        pair = build_cipher(vocab.size, args.bits)
        with _named(args.freq):
            nu = build_noise_model(table, vocab, pair, mode=args.dtype)
        interned = intern_documents(stream_documents(args.corpus, config))
        _check_table(interned_frequencies(interned), table, args.corpus,
                     args.freq)
        rows = embed_corpus(interned, vocab, nu, context)
        # freed once aggregated, not held through post-processing and writing
        del interned, nu
        if args.postproc:
            # refined over the aggregate's buffer, which is freed on return
            rows, report = pipeline(rows, epsilon=args.epsilon,
                                    overwrite_rows=True)
        _write_embeddings(rows, row_tokens(vocab), temp["embeddings"],
                          args.format)
        if args.save_cipher:
            save_cipher(pair, temp["cipher"], mode=args.dtype)
        if args.postproc:
            write_json(asdict(report), temp["postproc_report"])
    print(f"embedded {vocab.size}+oov rows at dimension {rows.shape[1]} "
          f"-> {args.out}")
    return EXIT_OK


def cmd_postproc(args) -> int:
    check_epsilon(args.epsilon)  # so a flag error is not blamed on the input
    with publish(args.out, "postproc",
                 {"epsilon": args.epsilon, "row_mean": args.row_mean,
                  "format": args.format},
                 {"embeddings": args.embeddings},
                 {"embeddings": args.out,
                  "report": sidecar(args.out, "report")}) as temp:
        rows, tokens = read_embeddings(args.embeddings)
        rows = rows.astype("float64", copy=False)  # free float32 rows early
        with _named(args.embeddings):
            rows, report = pipeline(rows, epsilon=args.epsilon,
                                    row_mean=args.row_mean,
                                    overwrite_rows=True)
        _write_embeddings(rows, tokens, temp["embeddings"], args.format)
        write_json(asdict(report), temp["report"])
    print(f"postprocessed {rows.shape[0]} rows ({', '.join(report.steps)}) "
          f"-> {args.out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    inputs = {"embeddings": args.embeddings, "train": args.train,
              "dev": args.dev, "test": args.test}
    names = {field.name for field in fields(ProbeHyperparams)}
    hp = ProbeHyperparams(**{k: v for k, v in vars(args).items()
                             if k in names})
    with publish(args.metrics_out, "probe",
                 {"hyperparams": asdict(hp),
                  "token_column": args.token_column,
                  "label_column": args.label_column},
                 inputs, {"metrics": args.metrics_out}) as temp:
        rows, tokens = read_embeddings(args.embeddings)
        with _named(args.embeddings):
            vocab = vocabulary_from_tokens(tokens)
        train, dev, test = (load_conll(inputs[split], args.token_column,
                                       args.label_column, split)
                            for split in ("train", "dev", "test"))
        for data in (train, dev, test):  # checked before training runs
            label_ids(data, train.label_set)
        model = train_probe(rows, vocab, train, dev, hp)
        metrics = evaluate_probe(model, rows, vocab, test)
        print(metrics.summary_line())
        payload = metrics.to_dict()
        payload["hyperparams"] = asdict(hp)
        write_json(payload, temp["metrics"])
    return EXIT_OK


def cmd_export(args) -> int:
    with publish(args.out, "export", {"format": args.format},
                 {"embeddings": args.embeddings},
                 {"embeddings": args.out}) as temp:
        rows, tokens = read_embeddings(args.embeddings)
        _write_embeddings(rows, tokens, temp["embeddings"], args.format)
    print(f"exported {rows.shape[0]} x {rows.shape[1]} as {args.format} "
          f"-> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitcipher",
        description="Deterministic bit-cipher embeddings: count corpora, "
                    "build embeddings, post-process, probe, and export.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count unigram/document frequencies")
    count.add_argument("corpus", help="plain-text or gzip corpus file")
    count.add_argument("--out", required=True, help="frequency table path")
    count.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted and ignored (README says when count "
                            "forks); kept for bitbench's zipf-cat chain, "
                            "which passes --threads 2 (default: 1)")
    _add_tokenizer_flags(count)
    count.set_defaults(func=cmd_count)

    embed = sub.add_parser("embed", help="build cipher embeddings from a corpus")
    embed.add_argument("corpus", help="plain-text or gzip corpus file")
    embed.add_argument("--freq", required=True, help="frequency table path")
    embed.add_argument("--out", required=True, help="embedding output path")
    embed.add_argument("--bits", type=int, required=True,
                       help="cipher width b (vocab capacity 2^b - 1)")
    embed.add_argument("--radius", type=int, default=4,
                       help="context window half-width (default: %(default)s)")
    embed.add_argument("--mode", choices=("sum", "cat"), default="sum",
                       help="context aggregation (default: %(default)s)")
    embed.add_argument("--log", action="store_true",
                       help="weight contexts by log(1+count)")
    embed.add_argument("--dtype", choices=("unigram", "df"), default="unigram",
                       help="noise fidelity mode (default: %(default)s)")
    embed.add_argument("--include-center", action="store_true",
                       help="add each token's own vector to its sum row")
    embed.add_argument("--max-vocab", type=_positive_int, default=None,
                       help="optional vocabulary cap")
    embed.add_argument("--postproc", action="store_true",
                       help="whiten + center + L2-normalize the output")
    embed.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                       help="whitening regularizer (default: %(default)s)")
    embed.add_argument("--format", choices=("text", "binary"), default="text",
                       help="output format (default: %(default)s)")
    embed.add_argument("--save-cipher", default=None,
                       help="also save the raw cipher to this path")
    _add_tokenizer_flags(embed)
    embed.set_defaults(func=cmd_embed)

    post = sub.add_parser("postproc", help="whiten/center/normalize embeddings")
    post.add_argument("embeddings", help="embedding file (text or binary)")
    post.add_argument("--out", required=True)
    post.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    post.add_argument("--row-mean", action="store_true",
                      help="center each row by its own mean instead of the "
                           "column mean")
    post.add_argument("--format", choices=("text", "binary"), default="text")
    post.set_defaults(func=cmd_postproc)

    probe = sub.add_parser("probe", help="train/evaluate the tagging probe")
    probe.add_argument("embeddings", help="embedding file (text or binary)")
    probe.add_argument("--train", required=True, help="training CoNLL file")
    probe.add_argument("--dev", required=True, help="development CoNLL file")
    probe.add_argument("--test", required=True, help="test CoNLL file")
    probe.add_argument("--metrics-out", required=True,
                       help="JSON metrics output path")
    probe.add_argument("--token-column", type=int, default=0)
    probe.add_argument("--label-column", type=int, default=-1)
    for field in fields(ProbeHyperparams):
        if field.name != "leaky_slope":  # no flag sets it
            flag = {"learning_rate": "lr"}.get(field.name, field.name)
            probe.add_argument("--" + flag.replace("_", "-"), dest=field.name,
                               type=type(field.default), default=field.default)
    probe.set_defaults(func=cmd_probe)

    export = sub.add_parser("export", help="convert between embedding formats")
    export.add_argument("embeddings", help="embedding file (text or binary)")
    export.add_argument("--out", required=True)
    export.add_argument("--format", choices=("text", "binary"), required=True)
    export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
