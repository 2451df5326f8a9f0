"""Every public name of the package has a caller in the library, the example
scripts or the benchmark harness: a name none of them uses is code to
delete, not to maintain."""

import ast
from pathlib import Path

import bitcipher

ROOT = Path(__file__).resolve().parent.parent


def _used_names(path, strings):
    """Names and attributes read in ``path``, and its string constants if
    ``strings`` (the tracer names the functions it wraps by string)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value


def test_every_public_name_has_a_caller():
    used = set()
    for folder in ("src/bitcipher", "scripts", "bitbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            used.update(_used_names(path, strings=folder == "bitbench"))
    assert sorted(set(bitcipher.__all__) - used) == []
