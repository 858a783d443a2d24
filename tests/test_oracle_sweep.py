"""The oracle sweep's per-seed check, run over seeds 0-99.

``scripts/run_oracle_sweep.py`` round-trips each ``gen_random`` program
through ``serialize`` -> ``load_program`` -> ``serialize`` byte for byte,
and requires pipeline, ``oracle.py`` and manifest to agree. The script runs
more seeds; this keeps the first hundred in the test suite.
"""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_oracle_sweep.py")


def _sweep_module():
    spec = importlib.util.spec_from_file_location("run_oracle_sweep", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_oracle_sweep_agrees_on_seeds_0_to_99():
    run_seed = _sweep_module().run_seed
    problems = {s: run_seed(s, 200) for s in range(100)}
    assert {s: p for s, p in problems.items() if p} == {}
