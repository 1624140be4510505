"""The benchmark tracer (perfbench/tracing.py) patches natgrad by name; every
name it looks up must still resolve where it looks, or ``--trace 1`` breaks."""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

from natgrad.grids import Grid, build_operator_set, build_weighted_divergence

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Leave the benchmark directory as checked out (no __pycache__).
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_layer_target_resolves(tracing):
    targets = tracing.LAYERS + tracing.AllocProbe.PROBED
    for name, module, attr in targets:
        mod = importlib.import_module(module)
        if "." in attr:
            # Methods are swapped through the class body, not inherited lookup.
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{name}: {attr}"
        else:
            assert callable(getattr(mod, attr, None)), f"{name}: {attr}"


def test_operator_set_cache_is_observable():
    info = build_operator_set.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_divergence_counts_read_backend_and_rank(tracing, rng):
    # One banded factor for every rank case; the rank follows from parity.
    for counts in ((6, 6), (3, 4), (3, 3), (11, 11)):
        grid = Grid.regular([[0, 1], [0, 1]], counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wdiv = build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size))
        counts_read = tracing._counts("grids.build_weighted_divergence", wdiv)
        assert counts_read == {
            "backend.sparse": 1,
            "rank_deficient": int(all(n % 2 for n in counts)),
        }
