"""Fixtures shared by the test modules: the benchmark generator and its
seed-1 verify inputs, as files and parsed."""

import json
import sys
from pathlib import Path

import pytest

from qoper.cli import parse_instance


@pytest.fixture(scope="session")
def gen():
    """The benchmark's instance generator, perfbench/gen.py."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(root / "perfbench"))
    return gen


@pytest.fixture(scope="session")
def seed1_verify_paths(gen, tmp_path_factory):
    """The seed-1 verify input files of perfbench/gen.py, by family."""
    paths = gen.generate(1, str(tmp_path_factory.mktemp("gen")),
                         gen.VERIFY_FAMILIES, solved=True)
    return {Path(p).stem: p for p in paths}


@pytest.fixture(scope="session")
def seed1_verify_inputs(seed1_verify_paths):
    """The same inputs parsed, (instance, solution) by family."""
    return {name: parse_instance(json.loads(Path(p).read_text()))[:2]
            for name, p in seed1_verify_paths.items()}
