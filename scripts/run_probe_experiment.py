#!/usr/bin/env python3
"""Probe-quality experiment: cipher embeddings vs a random baseline.

Generates a deterministic English-like corpus, trains sum- or cat-mode
cipher embeddings on it, refines them, and probes a tagging task whose test
split only contains word types the probe never saw. Accuracy on unseen
types measures how much category information the embedding geometry itself
carries; a random embedding matrix gives the memorization-free floor.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bitcipher as bc
from bitcipher.synth import (generate_tagged_sentences, sentences_to_text,
                             split_types, type_split_datasets)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tokens", type=int, default=100_000,
                        help="corpus size in tokens (default: %(default)s)")
    parser.add_argument("--bits", type=int, default=25)
    parser.add_argument("--radius", type=int, default=4)
    parser.add_argument("--mode", choices=("sum", "cat"), default="sum")
    parser.add_argument("--dtype", choices=("unigram", "df"), default="df")
    parser.add_argument("--no-log", action="store_true",
                        help="disable log(1+count) weighting")
    parser.add_argument("--no-postproc", action="store_true")
    parser.add_argument("--train-tokens", type=int, default=30_000)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    return parser.parse_args()


def main():
    args = parse_args()
    start = time.monotonic()

    sentences = generate_tagged_sentences(args.tokens, seed=args.seed)
    text = sentences_to_text(sentences).encode()
    print(f"corpus: {sum(len(s) for s in sentences)} tokens, "
          f"{len(sentences)} sentences")

    table = bc.count_frequencies(bc.stream_documents(text))
    vocab = bc.build_vocabulary(table, args.bits)
    pair = bc.build_cipher(vocab.size, args.bits)
    nu = bc.build_noise_model(table, vocab, pair, args.dtype)
    config = bc.ContextConfig(radius=args.radius, mode=args.mode,
                              log_weighting=not args.no_log)
    interned = bc.intern_documents(bc.stream_documents(text))
    embeddings = bc.embed_corpus(interned, vocab, nu, config)
    if not args.no_postproc:
        embeddings, _ = bc.pipeline(embeddings)
    print(f"embeddings: {embeddings.shape[0]} rows x "
          f"{embeddings.shape[1]} dims ({args.mode}, r={args.radius}, "
          f"b={args.bits}, dtype={args.dtype})")

    _, holdout = split_types(seed=args.seed)
    train, dev, test = type_split_datasets(sentences, holdout, seed=args.seed)
    train.sequences = train.sequences[:args.train_tokens]
    dev.sequences = dev.sequences[:args.train_tokens // 6]
    print(f"tagging task: {len(train)} train / {len(dev)} dev / "
          f"{len(test)} held-out-type test tokens")

    hp = bc.ProbeHyperparams(hidden=args.hidden, epochs=args.epochs,
                             dropout=0.3, seed=args.seed)
    results = {}
    random_rows = np.random.default_rng(args.seed + 1).normal(
        size=embeddings.shape)
    for name, rows in (("cipher", embeddings), ("random", random_rows)):
        model = bc.train_probe(rows, vocab, train, dev, hp)
        metrics = bc.evaluate_probe(model, rows, vocab, test)
        results[name] = metrics
        print(f"{name:>7}: {metrics.summary_line()}")

    margin = results["cipher"].accuracy - results["random"].accuracy
    print(f"margin: {margin:.2f} accuracy points "
          f"({time.monotonic() - start:.1f}s)")


if __name__ == "__main__":
    main()
