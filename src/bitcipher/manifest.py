"""Reproducibility manifests: configuration plus input/output digests.

A manifest records everything needed to re-derive an artifact: the command,
tool version, the flag configuration, and SHA-256 digests of every file read
and written. Re-running on identical inputs must reproduce identical
artifact digests, so no timestamps or host details are stored.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import contextmanager, suppress
from pathlib import Path

from . import __version__


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as src:
        while chunk := src.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def sidecar(artifact: str | Path, kind: str) -> Path:
    """``<artifact>.<kind>.json``: the artifact's manifest, report etc."""
    return Path(f"{artifact}.{kind}.json")


def _check_outputs(inputs: dict, outputs: list) -> set:
    """Refuse an input that exists but is not a regular file (a pipe or a
    device cannot be hashed after it is read), and an output path that is
    an input, another output or a directory, or that sits in a missing
    directory; return every path's real path."""
    for path in inputs.values():
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{path}: input is not a regular file")
    taken = {os.path.realpath(path): "an input" for path in inputs.values()}
    for path in outputs:
        real = os.path.realpath(path)
        if real in taken:
            raise ValueError(f"{path}: output path is also {taken[real]} "
                             "of this command")
        if os.path.isdir(real):
            raise ValueError(f"{path}: output path is a directory")
        if not os.path.isdir(os.path.dirname(real)):
            raise ValueError(f"{path}: output directory does not exist")
        taken[real] = "another output"
    return set(taken)


def _running(pid: int) -> bool:
    """False only when no process has ``pid``; a pid this process may not
    signal counts as running, and so does any pid off POSIX, where
    ``os.kill`` with signal 0 would interrupt the process."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):
        pass
    return True


def _remove_orphaned_temps(finals: list) -> None:
    """Remove each ``.<name>.<pid>.tmp`` sibling of ``finals`` that a
    killed run left: a regular file whose pid is not running. A live pid,
    even a reused one, keeps its file. Cleanup never fails the command."""
    for final in map(Path, finals):
        orphan = re.compile(rf"\.{re.escape(final.name)}\.([0-9]+)\.tmp")
        with suppress(OSError), os.scandir(final.parent) as entries:
            for entry in entries:
                match = orphan.fullmatch(entry.name)
                if (match and entry.is_file(follow_symlinks=False)
                        and not _running(int(match[1]))):
                    with suppress(FileNotFoundError):
                        os.unlink(entry.path)


@contextmanager
def publish(artifact: str | Path, command: str, config: dict, inputs: dict,
            outputs: dict):
    """Check the output paths before any work, then yield a temporary path
    beside each of ``outputs`` (name -> path) for the block to write. Once
    the block ends, remove the old manifest beside ``artifact`` and an old
    report this run does not write (a regular file that is no input), move
    each output into place, and write the manifest last. On failure the
    temporary files are removed and the error names the output: no file
    changes before the moves, and no manifest is left after a failed one.
    Temporary files beside the outputs that a killed run left are removed
    first."""
    manifest = sidecar(artifact, "manifest")
    report = sidecar(artifact, "report")
    finals = [*outputs.values(), manifest]
    taken = _check_outputs(inputs, finals)
    _remove_orphaned_temps(finals)
    temps = [Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
             for path in finals]

    def named(text):
        for temp, final in zip(temps, finals):
            text = text.replace(str(temp), str(final))
        return text

    try:
        yield dict(zip(outputs, temps))
        with suppress(FileNotFoundError):
            os.unlink(manifest)
        if (os.path.realpath(report) not in taken and os.path.isfile(report)
                and not os.path.islink(report)):
            os.unlink(report)
        for temp, final in zip(temps, finals[:-1]):
            os.replace(temp, final)
        write_manifest(command, config, inputs, outputs, temps[-1])
        os.replace(temps[-1], manifest)
    except (OSError, ValueError) as exc:
        # Writers name the path they were handed; name the output instead.
        if not isinstance(exc, OSError):
            exc.args = tuple(named(arg) if isinstance(arg, str) else arg
                             for arg in exc.args)
        elif isinstance(exc.filename, (str, os.PathLike)):
            exc.filename = named(os.fspath(exc.filename))
        raise
    finally:
        for temp in temps:
            with suppress(FileNotFoundError):
                os.unlink(temp)


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` as sorted, indented JSON with a trailing newline; a NaN
    or infinity, which standard JSON cannot hold, raises ``ValueError``."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(text + "\n")


def write_manifest(command: str, config: dict, inputs: dict, outputs: dict,
                   path: str | Path) -> None:
    """Write the manifest record to ``path``; ``inputs`` and ``outputs``
    map names to paths, each recorded with its SHA-256. Write it after the
    outputs it vouches for, as :func:`publish` does."""
    def files(paths):
        return {name: {"path": str(path), "sha256": sha256_file(path)}
                for name, path in paths.items()}

    write_json({"command": command, "version": __version__, "config": config,
                "inputs": files(inputs), "outputs": files(outputs)}, path)
