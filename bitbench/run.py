#!/usr/bin/env python3
"""bitcipher benchmark: the count -> embed -> postproc -> probe CLI chain.

  python3 bitbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (timed as ``setup_s``), then
runs the CLI chain of the checkout's ``src/`` as subprocesses
(``python -m bitcipher.cli`` with ``PYTHONPATH=src``) until ``--seconds``
have passed, checking every artifact of every run. With ``--trace 0`` it
reports the end-to-end metrics as medians over runs, with times scaled to
the host's full speed as measured by ``hostspeed.py`` (see ``host_scale``);
with ``--trace 1`` it alternates untraced runs with traced runs (see
``tracer.py``) and reports per-layer metrics derived from the spans.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every command succeeded and every check passed; without a
``src/bitcipher`` package next to this directory it is 2 and no result is
printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bitbench_work"

SETUP_REPS = 3           # generations before the first chain
SETUP_SHARE = 0.06       # share of the timed run spent on further
                         # generations between chains, so setup_s samples
                         # the whole run, as the chains do
MIN_RUNS = 3             # timed chain runs, even past --seconds
STARTUP_REPS = 5         # `--version` runs behind cli.startup_s
BLAS_THREADS = 1         # fixed for every child; the probe is reproducible
                         # only at equal thread counts
NORM_TOLERANCE = 1e-4    # |L2 norm - 1| after postproc, text and float32
SPEED_NOMINAL_S = 0.25   # hostspeed.py's wall time on this benchmark's
                         # 2-core host when it runs at full speed; times are
                         # reported at that speed (see host_scale)
INPUTS = ("corpus.txt", "train.conll", "dev.conll", "test.conll")


class Launcher:
    """Runs commands through ``spawn.py`` and returns their wait4 rusage."""

    def __init__(self, env: dict, logs: Path):
        self.logs = logs
        self.count = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, label: str) -> dict:
        self.count += 1
        stem = self.logs / f"{self.count:04d}-{label}"
        request = {"argv": argv, "cwd": str(cwd),
                   "stdout": f"{stem}.out", "stderr": f"{stem}.err"}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as src:
        for chunk in iter(lambda: src.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def environment() -> dict:
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


# ---------------------------------------------------------------- checks

def _unescape(token: str) -> str:
    """Undo the text format's percent-escapes (``%25`` last)."""
    for code, char in (("%20", " "), ("%09", "\t"), ("%0A", "\n"),
                       ("%0D", "\r"), ("%25", "%")):
        token = token.replace(code, char)
    return token


def read_text_embedding(path: Path):
    with open(path, encoding="utf-8") as src:
        rows, dim = (int(v) for v in src.readline().split())
        tokens, values = [], []
        for line in src:
            parts = line.split()
            tokens.append(_unescape(parts[0]))
            values.extend(parts[1:])
    return tokens, np.array(values, dtype=np.float64).reshape(rows, dim)


def read_binary_embedding(path: Path):
    data = path.read_bytes()
    magic = data[:4]
    _, rows, dim = np.frombuffer(data[4:16], dtype="<u4")
    if magic != b"BCEM":
        raise ValueError("bad magic")
    end = 16 + 4 * int(rows) * int(dim)
    matrix = np.frombuffer(data[16:end], dtype="<f4").reshape(rows, dim)
    tokens, pos = [], end
    for _ in range(rows):
        length = int.from_bytes(data[pos:pos + 4], "little")
        tokens.append(data[pos + 4:pos + 4 + length].decode("utf-8"))
        pos += 4 + length
    if pos != len(data):
        raise ValueError("trailing bytes")
    return tokens, matrix.astype(np.float64)


def check_matrix(tokens, matrix, rows: int, dim: int) -> str:
    """Shape, ``<oov>`` last row, finite values and unit L2 rows (every
    artifact here has been through postproc)."""
    if matrix.shape != (rows, dim):
        return f"shape {matrix.shape}, expected {(rows, dim)}"
    if tokens[-1] != "<oov>":
        return "last row is not <oov>"
    if not np.isfinite(matrix).all():
        return "non-finite values"
    worst = float(np.abs(np.linalg.norm(matrix, axis=1) - 1.0).max())
    if worst > NORM_TOLERANCE:
        return f"row L2 norm off by {worst:.2e}"
    return ""


def check_chain(w, d: Path, results: dict) -> dict[str, str]:
    """Problems found in one chain run, keyed by command."""
    problems = {}
    for name, _argv, _artifact in w.chain():
        status = results.get(name, {}).get("status")
        if status != 0:
            problems[name] = f"exit status {status}"
    if problems:
        return problems
    artifacts = {name: d / artifact for name, _argv, artifact in w.chain()}
    for name, artifact in artifacts.items():
        try:
            with open(f"{artifact}.manifest.json", encoding="utf-8") as src:
                manifest = json.load(src)
            for entry in [*manifest["inputs"].values(),
                          *manifest["outputs"].values()]:
                if sha256(d / entry["path"]) != entry["sha256"]:
                    problems[name] = f"manifest digest mismatch: {entry['path']}"
        except (OSError, ValueError, KeyError) as exc:
            problems[name] = f"manifest: {exc!r}"
    try:
        with open(artifacts["count"], encoding="utf-8") as src:
            types = sum(1 for line in src if line.strip()) - 1
        rows = min(types, (1 << w.bits) - 1) + 1
        text_tokens, text = read_text_embedding(artifacts["embed"])
        problem = check_matrix(text_tokens, text, rows, w.embed_dim())
        if problem:
            problems["embed"] = problem
        bin_tokens, binary = read_binary_embedding(artifacts["postproc"])
        problem = check_matrix(bin_tokens, binary, rows, w.embed_dim())
        if bin_tokens != text_tokens:
            problem = "token column differs from the text embedding"
        if problem:
            problems["postproc"] = problem
        with open(artifacts["probe"], encoding="utf-8") as src:
            accuracy = json.load(src)["accuracy"]
        if not accuracy >= w.accuracy_floor:
            problems["probe"] = (f"accuracy {accuracy} below floor "
                                 f"{w.accuracy_floor}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.setdefault("check", repr(exc))
    return problems


def output_digests(d: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(d.iterdir())
            if p.is_file() and p.name not in INPUTS}


# ---------------------------------------------------------------- runs

class Session:
    """One benchmark invocation: inputs, launcher, run and failure records."""

    def __init__(self, w, launcher: Launcher, logs: Path, seed: int,
                 work: Path):
        self.w, self.launcher, self.logs = w, launcher, logs
        self.seed, self.work = seed, work
        self.d: Path | None = None    # input directory, where commands run
        self.inputs: dict[str, str] | None = None   # its digests
        self.tokens = 0
        self.setup_times: list[float] = []
        self.speed_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def setup(self, reps: int, seconds: float) -> None:
        """Generate the inputs at least ``reps`` times and for ``seconds``;
        every generation must be byte-identical to the first, which becomes
        the input directory."""
        import workloads
        done, spent = 0, 0.0
        while done < reps or spent < seconds:
            out = self.work / f"inputs{len(self.setup_times)}"
            start = time.perf_counter()
            self.tokens = workloads.generate(self.w, self.seed, out)
            elapsed = time.perf_counter() - start
            self.setup_times.append(elapsed)
            done, spent = done + 1, spent + elapsed
            self.attempted += 1
            digests = {name: sha256(out / name) for name in INPUTS}
            if self.inputs is None:
                self.d, self.inputs = out, digests
                continue
            if digests != self.inputs:
                self.fail(f"setup {len(self.setup_times) - 1}: inputs differ "
                          "for the same seed")
            shutil.rmtree(out)

    def time_host_speed(self) -> None:
        """Time one run of the fixed work in ``hostspeed.py``."""
        argv = [sys.executable, str(BENCH / "hostspeed.py")]
        result = self.launcher.run(argv, self.d,
                                   f"hostspeed{len(self.speed_times)}")
        if result["status"] != 0:
            self.fail(f"hostspeed: exit status {result['status']}")
        else:
            self.speed_times.append(result["wall_s"])

    def chain(self, traced: bool, run_id: str, speed=False) -> dict:
        """Run the chain once and check it; with ``speed``, time
        ``hostspeed.py`` before every other command."""
        for path in self.d.iterdir():
            if path.name not in INPUTS:
                path.unlink()
        results = {}
        for i, (name, argv, _artifact) in enumerate(self.w.chain()):
            if traced:
                spans = self.logs / f"{run_id}-{name}.spans.json"
                cmd = [sys.executable, str(BENCH / "tracer.py"),
                       "--spans", str(spans), "--run-id", run_id, "--", *argv]
            else:
                cmd = [sys.executable, "-m", "bitcipher.cli", *argv]
            if speed and i % 2 == 0:
                self.time_host_speed()
            self.attempted += 1
            results[name] = self.launcher.run(cmd, self.d, f"{run_id}-{name}")
            if results[name]["status"] != 0:
                break
        # Outputs byte-identical to the fully checked first run pass every
        # check that run passed; anything else is checked in full.
        digests = output_digests(self.d)
        problems = {}
        if not (digests == self.reference and len(results) == 4
                and all(r["status"] == 0 for r in results.values())):
            problems = check_chain(self.w, self.d, results)
        if not problems and digests != self.reference:
            if self.reference is None:
                self.reference = digests
            else:
                differing = {n for n in set(digests) | set(self.reference)
                             if digests.get(n) != self.reference.get(n)}
                owners = {name for name, _a, artifact in self.w.chain()
                          if any(n.startswith(artifact) for n in differing)}
                problems = {o: "artifact digest differs from the first run"
                            for o in owners or {"chain"}}
        for name, problem in problems.items():
            self.fail(f"{run_id} {name}: {problem}")
        return results


def median(values):
    return statistics.median(values) if values else None


def high_percentile(values) -> str:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")
            return f"p{p}={q[p - 1]:.6g}"
    return "p-high n/a"


# ---------------------------------------------------------------- metrics

END_TO_END = (
    ("setup_s", "s"), ("count_s", "s"), ("embed_s", "s"), ("postproc_s", "s"),
    ("probe_s", "s"), ("chain_s", "s"), ("tokens_per_s", "tokens/s"),
    ("peak_rss_mb", "MB"), ("embed_rss_mb", "MB"), ("probe_accuracy", "%"),
)


def host_scale(speed_times: list) -> float:
    """Factor that brings this run's times to the host's full speed.

    The host's speed drifts by tens of percent over minutes (a fixed loop
    varied 2x within 90 s, in CPU time as much as in wall time), so the
    medians of runs made minutes apart differ by more than any useful bound.
    ``hostspeed.py`` runs before every other timed command; its median time
    over the run, against ``SPEED_NOMINAL_S``, says how fast the host ran
    during the run, and every time metric is scaled by it.
    """
    return SPEED_NOMINAL_S / median(speed_times) if speed_times else 1.0


def end_to_end_samples(runs: list[dict], tokens: int, setup_times: list,
                       scale: float = 1.0) -> dict[str, list]:
    """One sample per timed chain (per generation for ``setup_s``); times
    are multiplied by ``scale``."""
    complete = [r for r in runs if all(v["status"] == 0 for v in r.values())
                and len(r) == 4]
    wall = {name: [scale * r[name]["wall_s"] for r in complete]
            for name in ("count", "embed", "postproc", "probe")}
    return {
        "setup_s": [scale * t for t in setup_times],
        "count_s": wall["count"], "embed_s": wall["embed"],
        "postproc_s": wall["postproc"], "probe_s": wall["probe"],
        "chain_s": [sum(times) for times in zip(*wall.values())],
        "tokens_per_s": [tokens / (count + embed) for count, embed
                         in zip(wall["count"], wall["embed"])],
        "peak_rss_mb": [max(v["maxrss_kb"] for v in r.values()) / 1024
                        for r in complete],
        "embed_rss_mb": [r["embed"]["maxrss_kb"] / 1024 for r in complete],
    }


PER_LAYER = (
    ("corpus.tokenize_s", "s"), ("corpus.tokens", "count"),
    ("corpus.tokenize_tokens_per_s", "tokens/s"),
    ("corpus.count_corpus_s", "s"), ("corpus.count_corpus_w1_s", "s"),
    ("corpus.types", "count"), ("corpus.lines", "count"),
    ("corpus.read_frequency_table_s", "s"), ("corpus.build_vocabulary_s", "s"),
    ("cipher.build_cipher_s", "s"), ("cipher.rows", "count"),
    ("cipher.build_noise_model_s", "s"), ("cipher.noisy_vectors_s", "s"),
    ("cooc.accumulate_s", "s"), ("cooc.cells", "count"),
    ("cooc.pair_increments", "count"), ("cooc.cells_per_increment", "ratio"),
    ("cooc.aggregate_s", "s"), ("cooc.embed_corpus_self_s", "s"),
    ("cooc.rss_hwm_mb", "MB"),
    ("postprocess.whiten_s", "s"), ("postprocess.center_and_normalize_s", "s"),
    ("postprocess.degenerate_directions", "count"),
    ("embedio.write_text_s", "s"), ("embedio.write_text_mb_per_s", "MB/s"),
    ("embedio.read_text_s", "s"), ("embedio.read_mb_per_s", "MB/s"),
    ("embedio.write_binary_s", "s"), ("embedio.bytes_written", "bytes"),
    ("embedio.bytes_read", "bytes"),
    ("manifest.sha256_s", "s"), ("manifest.bytes_hashed", "bytes"),
    ("probe.load_conll_s", "s"), ("probe.train_s", "s"),
    ("probe.epochs", "count"), ("probe.train_examples_per_s", "examples/s"),
    ("probe.evaluate_s", "s"), ("probe.rss_hwm_mb", "MB"),
    ("cli.startup_s", "s"), ("cli.unaccounted_s", "s"),
    ("cli.trace_overhead_s", "s"), ("cli.embed_coverage", "ratio"),
)


def _spans(payloads: dict, name: str, commands=None) -> list[dict]:
    return [s for cmd, p in payloads.items()
            if commands is None or cmd in commands
            for s in p["spans"] if s["name"] == name]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _self_time(payload: dict, span: dict) -> float:
    children = [s for s in payload["spans"] if s["parent"] == span["id"]]
    return _dur(span) - sum(_dur(c) for c in children)


def _count(spans: list[dict], key: str):
    values = [s.get("counts", {}).get(key) for s in spans]
    return sum(values) if values and None not in values else None


def layer_metrics(payloads: dict, w) -> dict[str, float]:
    """Per-layer values of one traced chain run; absent spans give no value."""
    out: dict[str, float] = {}

    def put(name, value):
        if value is not None:
            out[name] = value

    def total(name, commands=None):
        spans = _spans(payloads, name, commands)
        return sum(_dur(s) for s in spans) if spans else None

    def ratio(num, den):
        return num / den if num is not None and den else None

    def megabytes(spans):
        count = _count(spans, "bytes")
        return count / (1024 * 1024) if count is not None else None

    tokenize = _spans(payloads, "corpus.tokenize")
    if tokenize:
        lengths = tokenize[0]["counts"]["doc_lengths"]
        put("corpus.tokenize_s", _dur(tokenize[0]))
        put("corpus.tokens", sum(lengths))
        put("corpus.tokenize_tokens_per_s",
            ratio(sum(lengths), _dur(tokenize[0])))
        put("corpus.lines", len(lengths))
        increments = sum(2 * max(0, n - o) for n in lengths
                         for o in range(1, w.radius + 1))
        put("cooc.pair_increments", increments)
        cells = _count(_spans(payloads, "cooc.accumulate_cooccurrence"),
                       "cells")
        put("cooc.cells_per_increment", ratio(cells, increments))
    count = _spans(payloads, "corpus.count_corpus", ("count",))
    put("corpus.count_corpus_s", total("corpus.count_corpus", ("count",)))
    put("corpus.count_corpus_w1_s",
        total("corpus.count_corpus", ("layers",)) if w.count_threads != 1
        else total("corpus.count_corpus", ("count",)))
    put("corpus.types", _count(count, "types"))
    put("corpus.read_frequency_table_s", total("corpus.read_frequency_table"))
    put("corpus.build_vocabulary_s", total("corpus.build_vocabulary"))

    put("cipher.build_cipher_s", total("cipher.build_cipher"))
    put("cipher.rows", _count(_spans(payloads, "cipher.build_cipher"), "rows"))
    put("cipher.build_noise_model_s", total("cipher.build_noise_model"))
    put("cipher.noisy_vectors_s", total("cipher.noisy_vectors"))

    put("cooc.accumulate_s", total("cooc.accumulate_cooccurrence"))
    put("cooc.cells", _count(_spans(payloads, "cooc.accumulate_cooccurrence"),
                             "cells"))
    put("cooc.aggregate_s", total("cooc.aggregate"))
    embed_corpus = _spans(payloads, "cooc.embed_corpus", ("embed",))
    if embed_corpus:
        put("cooc.embed_corpus_self_s",
            _self_time(payloads["embed"], embed_corpus[0]))
        put("cooc.rss_hwm_mb", embed_corpus[0]["rss_kb"] / 1024)

    put("postprocess.whiten_s", total("postprocess.whiten"))
    put("postprocess.center_and_normalize_s",
        total("postprocess.center_and_normalize"))
    put("postprocess.degenerate_directions",
        _count(_spans(payloads, "postprocess.pipeline", ("postproc",)),
               "degenerate"))

    write_text = _spans(payloads, "embedio.write_embeddings_text")
    read_text = _spans(payloads, "embedio.read_embeddings_text")
    write_binary = _spans(payloads, "embedio.write_embeddings_binary")
    read_binary = _spans(payloads, "embedio.read_embeddings_binary")
    put("embedio.write_text_s", total("embedio.write_embeddings_text"))
    put("embedio.write_text_mb_per_s",
        ratio(megabytes(write_text), total("embedio.write_embeddings_text")))
    put("embedio.read_text_s", total("embedio.read_embeddings_text"))
    put("embedio.read_mb_per_s",
        ratio(megabytes(read_text), total("embedio.read_embeddings_text")))
    put("embedio.write_binary_s", total("embedio.write_embeddings_binary"))
    if write_text and write_binary:
        put("embedio.bytes_written", _count(write_text + write_binary, "bytes"))
    if read_text and read_binary:
        put("embedio.bytes_read", _count(read_text + read_binary, "bytes"))

    hashes = _spans(payloads, "manifest.sha256_file")
    put("manifest.sha256_s", total("manifest.sha256_file"))
    put("manifest.bytes_hashed", _count(hashes, "bytes"))

    train = _spans(payloads, "probe.train_probe")
    put("probe.load_conll_s", total("probe.load_conll"))
    put("probe.train_s", total("probe.train_probe"))
    epochs, examples = _count(train, "epochs"), _count(train, "examples")
    put("probe.epochs", epochs)
    if epochs is not None and examples is not None:
        put("probe.train_examples_per_s",
            ratio(examples * epochs, total("probe.train_probe")))
    evaluate = _spans(payloads, "probe.evaluate_probe")
    put("probe.evaluate_s", total("probe.evaluate_probe"))
    if evaluate:
        put("probe.rss_hwm_mb", evaluate[0]["rss_kb"] / 1024)

    mains = {cmd: s for cmd, p in payloads.items() for s in p["spans"]
             if s["name"] == "cli.main"}
    put("cli.unaccounted_s",
        sum(_self_time(payloads[cmd], s) for cmd, s in mains.items()))
    if "embed" in mains:
        put("cli.embed_coverage",
            1 - _self_time(payloads["embed"], mains["embed"])
            / _dur(mains["embed"]))
    return out


# ---------------------------------------------------------------- main

def trace_samples(session: Session, traced: list, startup: list,
                  untraced_chain: list) -> dict[str, list]:
    """Per-layer samples, one per traced chain, from the written spans."""
    per_run = []
    for run_id, results in traced:
        payloads = {}
        for name in [*results, "layers"]:
            try:
                with open(session.logs / f"{run_id}-{name}.spans.json",
                          encoding="utf-8") as src:
                    payloads[name] = json.load(src)
            except (OSError, ValueError):
                session.fail(f"{run_id} {name}: no spans")
        per_run.append(layer_metrics(payloads, session.w))
        absent = sorted({a for p in payloads.values() for a in p["absent"]})
        if absent:
            print(f"# absent functions: {', '.join(absent)}")
    samples = {name: [r[name] for r in per_run if name in r]
               for name, _unit in PER_LAYER}
    traced_chain = [sum(v["wall_s"] for v in r.values()) for _, r in traced]
    samples["cli.startup_s"] = startup
    samples["cli.trace_overhead_s"] = [median(traced_chain)
                                       - median(untraced_chain)]
    return samples


def traced_chain(session: Session, run_id: str) -> tuple[str, dict]:
    """One traced chain plus the standalone layer work, spans in the logs."""
    results = session.chain(True, run_id)
    layers = session.launcher.run(
        [sys.executable, str(BENCH / "tracer.py"), "--spans",
         str(session.logs / f"{run_id}-layers.spans.json"), "--run-id", run_id,
         "--layers", "corpus.txt", "--workers", str(session.w.count_threads)],
        session.d, f"{run_id}-layers")
    session.attempted += 1
    if layers["status"] != 0:
        session.fail(f"{run_id} layers: exit status {layers['status']}")
    return run_id, results


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def report(name: str, unit: str, values: list) -> None:
    if not values:
        print(f"# {name}: absent")
        return
    print(f"# {name}: median={median(values):.6g} {unit} "
          f"{high_percentile(values)} n={len(values)}")


def main() -> int:
    args = parse_args()
    if not (SRC / "bitcipher" / "cli.py").is_file():
        print(f"error: no bitcipher package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # workloads uses bitcipher.synth
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    work = WORK / f"{w.name}-s{args.seed}-p{os.getpid()}"
    logs = work / "logs"
    logs.mkdir(parents=True)
    launcher = Launcher(env, logs)
    # A terminated run still stops its launcher and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return measure(args, w, work, logs, launcher)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args, w, work: Path, logs: Path, launcher: Launcher) -> int:
    print(f"# environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload: {json.dumps(dataclasses.asdict(w), sort_keys=True)} "
          f"seed={args.seed}")
    session = Session(w, launcher, logs, args.seed, work)
    session.setup(SETUP_REPS, 0.0)

    startup = [launcher.run([sys.executable, "-m", "bitcipher.cli",
                             "--version"], session.d, f"startup{i}")["wall_s"]
               for i in range(STARTUP_REPS if args.trace else 1)]

    # One untimed chain first: it warms the page cache and becomes the
    # fully checked reference that later runs are compared with.
    session.chain(False, "warmup")
    untraced, traced = [], []
    start = time.perf_counter()
    setup_spent = 0.0
    while True:
        # Traced runs alternate with untraced ones, each going first in
        # turn, so cli.trace_overhead_s compares like with like.
        order = [False, True] if args.trace else [False]
        for is_traced in order[::-1] if len(traced) % 2 else order:
            if is_traced:
                traced.append(traced_chain(session, f"traced{len(traced)}"))
            elif args.trace:
                untraced.append(session.chain(False, f"run{len(untraced)}"))
            else:
                untraced.append(session.chain(False, f"run{len(untraced)}",
                                              speed=True))
                budget = (SETUP_SHARE * (time.perf_counter() - start)
                          - setup_spent)
                done = len(session.setup_times)
                session.setup(0, budget)
                setup_spent += sum(session.setup_times[done:])
        elapsed = time.perf_counter() - start
        if (len(untraced) >= (1 if args.trace else MIN_RUNS)
                and elapsed * (1 + 1 / len(untraced)) > args.seconds):
            break

    for label, runs in (("untraced", untraced),
                        ("traced", [r for _, r in traced])):
        if runs:
            walls = [" ".join(f"{v['wall_s']:.3f}" for v in r.values())
                     for r in runs]
            print(f"# {label} command walls (s): {' | '.join(walls)}")
    scale = host_scale(session.speed_times)
    if session.speed_times:
        raw = end_to_end_samples(untraced, session.tokens, session.setup_times)
        print(f"# host speed: hostspeed.py median="
              f"{median(session.speed_times):.6g} s "
              f"n={len(session.speed_times)}; times below are scaled by "
              f"{scale:.6g} to its nominal {SPEED_NOMINAL_S} s; unscaled "
              f"medians: " + " ".join(f"{name}={median(raw[name]):.6g}"
                                      for name in ("setup_s", "count_s",
                                                   "embed_s", "postproc_s",
                                                   "probe_s", "chain_s")))
    samples = end_to_end_samples(untraced, session.tokens,
                                 session.setup_times, scale)
    try:
        # Deterministic for a seed: every run's metrics.json is
        # byte-identical to the checked reference.
        with open(session.d / "metrics.json", encoding="utf-8") as src:
            samples["probe_accuracy"] = [json.load(src)["accuracy"]]
    except (OSError, ValueError, KeyError):
        pass
    if args.trace:
        names = PER_LAYER
        samples = trace_samples(session, traced, startup, samples["chain_s"])
    else:
        names = END_TO_END

    metrics = {}
    for name, unit in names:
        values = samples.get(name, [])
        report(name, unit, values)
        if values:
            metrics[name] = {"value": median(values), "unit": unit}
    for problem in session.problems:
        print(f"# FAILED {problem}")
    correct = session.failed == 0
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
