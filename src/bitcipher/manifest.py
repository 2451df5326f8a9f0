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
from contextlib import contextmanager, suppress
from pathlib import Path

from . import __version__


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as src:
        while chunk := src.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_path(artifact_path: str | Path) -> Path:
    return Path(str(artifact_path) + ".manifest.json")


@contextmanager
def staged(paths: dict):
    """Yield a temporary path beside each of ``paths`` (name -> path) for
    the block to write, and move each onto its path once the block ends.
    If the block raises, the temporary files are removed and no path is
    touched, so a crash never leaves a half-written artifact; a
    ``ValueError`` message then names the path, not its temporary file."""
    pid = os.getpid()
    temps = {name: Path(path).with_name(f".{Path(path).name}.{pid}.tmp")
             for name, path in paths.items()}
    try:
        yield temps
        for name, temp in temps.items():
            os.replace(temp, paths[name])
    except ValueError as exc:
        # Writers name the path they were handed; name the output instead.
        for name, temp in temps.items():
            exc.args = tuple(arg.replace(str(temp), str(paths[name]))
                             if isinstance(arg, str) else arg
                             for arg in exc.args)
        raise
    finally:
        for temp in temps.values():
            with suppress(FileNotFoundError):
                os.unlink(temp)


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` as sorted, indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        json.dump(obj, out, indent=2, sort_keys=True)
        out.write("\n")


def write_manifest(artifact: str | Path, command: str, config: dict,
                   inputs: dict, outputs: dict) -> None:
    """Write ``<artifact>.manifest.json``; ``inputs`` and ``outputs`` map
    names to paths, each recorded with its SHA-256. Write it after the
    outputs it vouches for."""
    def files(paths):
        return {name: {"path": str(path), "sha256": sha256_file(path)}
                for name, path in paths.items()}

    record = {"command": command, "version": __version__, "config": config,
              "inputs": files(inputs), "outputs": files(outputs)}
    with staged({"manifest": manifest_path(artifact)}) as temp:
        write_json(record, temp["manifest"])
