"""Smoke test for the README's attack demo, ``scripts/run_attack_demo.py``.

The demo runs one campaign per stage: probes only, then mutation until
the planted crash, then the Nv sandbox escape on both configs.
"""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_attack_demo.py")


def _demo_module():
    spec = importlib.util.spec_from_file_location("run_attack_demo", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_attack_demo_runs_all_three_stages(capsys):
    assert _demo_module().main([]) == 0
    out = capsys.readouterr().out
    stages = out.split("== stage ")
    assert len(stages) == 4 and stages[0] == ""
    probe, mutation, nv = stages[1:]
    assert "probes=7 classes={'permanent': 3, 'recoverable': 1, 'temporary': 3}" in probe
    crash = [ln for ln in mutation.splitlines() if ln.strip().startswith("crash:")]
    assert len(crash) == 1 and "-> recoverable after" in crash[0]
    verdicts = {ln.split()[0]: ln.split("->")[1].split()[0]
                for ln in nv.splitlines()[1:] if "->" in ln}
    assert verdicts == {"default": "escaped", "hardened": "contained"}
