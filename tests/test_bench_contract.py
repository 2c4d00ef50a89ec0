"""The frozen pipeline benchmark's imports must keep resolving.

``benchmarks/pipeline/`` is listed in ``BENCHMARK.json``'s ``paths`` and may
not be edited by later changes, so a ``repro`` name it imports can never be
removed or renamed.  This makes such a removal fail in tier-1 instead of in
the pipeline run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PIPELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "pipeline"
FILES = ("workloads.py", "probes.py", "worker.py")


def repro_imports(path):
    """Every ``(module, name)`` a file pulls in via ``from repro… import``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module
            and node.module.split(".")[0] == "repro"
        ):
            found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("filename", FILES)
def test_benchmark_imports_resolve(filename):
    imports = repro_imports(PIPELINE / filename)
    assert imports, f"{filename} imports nothing from repro"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (
            f"benchmarks/pipeline/{filename} needs {module}.{name}"
        )
