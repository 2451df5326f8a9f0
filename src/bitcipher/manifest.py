"""Reproducibility manifests: configuration plus input/output digests.

A manifest records everything needed to re-derive an artifact: the command,
tool version, the flag configuration, and SHA-256 digests of every file read
and written. Re-running on identical inputs must reproduce identical
artifact digests, so no timestamps or host details are stored.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


def sha256_file(path: str | Path, chunk_size: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as src:
        while True:
            chunk = src.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Manifest:
    command: str
    version: str
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def record_input(self, name: str, path: str | Path) -> None:
        self.inputs[name] = {"path": str(path), "sha256": sha256_file(path)}

    def record_output(self, name: str, path: str | Path) -> None:
        self.outputs[name] = {"path": str(path), "sha256": sha256_file(path)}


def manifest_path(artifact_path: str | Path) -> Path:
    return Path(str(artifact_path) + ".manifest.json")


def write_json(obj, path: str | Path) -> None:
    """Write ``obj`` as sorted, indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        json.dump(obj, out, indent=2, sort_keys=True)
        out.write("\n")


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    write_json(asdict(manifest), path)


def read_manifest(path: str | Path) -> Manifest:
    with open(path, "r", encoding="utf-8") as src:
        data = json.load(src)
    return Manifest(data["command"], data["version"], data["config"],
                    data["inputs"], data["outputs"])
