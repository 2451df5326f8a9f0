"""Traced execution of one bitcipher CLI command, or of the standalone layers.

Before running, the public functions of each module under ``src/bitcipher``
listed in ``TARGETS`` are wrapped so that every call records a span: name,
start, end, parent span, run id, ``ru_maxrss`` at exit and a few work
counts read from the arguments or result. The wrapper is installed in the
defining module and in every module that imported the function by name
(``cli`` does ``from .cooc import embed_corpus``; ``embed_corpus`` and
``pipeline`` call their children through module globals). Spans stay in
memory and are written as JSON when the command ends.

A function that no longer exists is listed under ``absent`` instead of
failing the run, so the per-layer metrics it feeds are reported as absent.

Usage:
  tracer.py --spans OUT --run-id ID -- <cli arguments>
  tracer.py --spans OUT --run-id ID --layers CORPUS --workers N
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

TARGETS = {
    "corpus": ("count_corpus", "write_frequency_table", "read_frequency_table",
               "build_vocabulary"),
    "cipher": ("build_cipher", "build_noise_model", "noisy_vectors"),
    "cooc": ("embed_corpus", "accumulate_cooccurrence", "aggregate"),
    "postprocess": ("pipeline", "whiten", "center_and_normalize"),
    "embedio": ("write_embeddings_text", "read_embeddings_text",
                "write_embeddings_binary", "read_embeddings_binary"),
    "manifest": ("sha256_file", "write_manifest"),
    "probe": ("load_conll", "train_probe", "evaluate_probe"),
}


def _size(bound, name):
    return os.path.getsize(bound[name])


# Work counts per span, read after the call; a failed read leaves them out.
COUNTS = {
    "corpus.count_corpus": lambda b, r: {"types": len(r.counts)},
    "cipher.build_cipher": lambda b, r: {"rows": len(r.bit_rows)},
    "cooc.accumulate_cooccurrence": lambda b, r: {"cells": len(r.counts)},
    "postprocess.pipeline":
        lambda b, r: {"degenerate": r[1].degenerate_directions},
    "embedio.write_embeddings_text": lambda b, r: {"bytes": _size(b, "path")},
    "embedio.write_embeddings_binary": lambda b, r: {"bytes": _size(b, "path")},
    "embedio.read_embeddings_text": lambda b, r: {"bytes": _size(b, "path")},
    "embedio.read_embeddings_binary": lambda b, r: {"bytes": _size(b, "path")},
    "manifest.sha256_file": lambda b, r: {"bytes": _size(b, "path")},
    "probe.train_probe": lambda b, r: {"epochs": len(r.train_loss),
                                       "examples": len(b["train"])},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self.stack[-1] if self.stack else None,
                "start": time.perf_counter()}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.stack.pop()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                try:
                    span["counts"] = count(
                        signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, IndexError,
                        OSError):
                    pass
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bitcipher"
                                         or n.startswith("bitcipher."))]
        for layer, names in TARGETS.items():
            try:
                home = importlib.import_module(f"bitcipher.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for fname in names:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                traced = self.wrap(f"{layer}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)

    def dump(self, path: str, command: str, status: int) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"command": command, "run": self.run_id,
                       "status": status, "absent": self.absent,
                       "spans": self.spans}, out)


def run_layers(tracer: Tracer, corpus: str, workers: int) -> int:
    """Layer work the CLI chain does not isolate: tokenizing by itself, and
    single-worker counting when the workload counts with several workers."""
    from bitcipher import corpus as module
    stream_tokens = getattr(module, "stream_tokens", None)
    if stream_tokens is None:
        tracer.absent.append("corpus.stream_tokens")
    else:
        span = tracer.begin("corpus.tokenize")
        lengths: list[int] = []
        current = None
        for doc_id, _token in stream_tokens(corpus):
            if doc_id != current:
                current = doc_id
                lengths.append(0)
            lengths[-1] += 1
        tracer.end(span)
        span["counts"] = {"tokens": sum(lengths), "doc_lengths": lengths}
    if workers != 1 and "corpus.count_corpus" not in tracer.absent:
        module.count_corpus(corpus, workers=1)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--layers", help="corpus for the standalone layers")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    sys.path.insert(0, str(SRC))
    import bitcipher.cli  # loads every module, so all are wrapped below

    tracer = Tracer(args.run_id)
    tracer.install()
    if args.layers:
        command = "layers"
        status = run_layers(tracer, args.layers, args.workers)
    else:
        command = cli_argv[0]
        span = tracer.begin("cli.main")
        try:
            status = bitcipher.cli.main(cli_argv)
        finally:
            tracer.end(span)
    tracer.dump(args.spans, command, status)
    return status


if __name__ == "__main__":
    sys.exit(main())
