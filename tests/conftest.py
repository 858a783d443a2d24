"""Shared fixtures plus a terminal summary for the acceptance criteria.

Acceptance tests are named ``test_criterion_<nn>_<label>``; the hook below
collects their outcomes and prints one ``[criterion N] PASS|FAIL`` line per
criterion at the end of the run, FAILing any criterion that never reached
its call phase.
"""

import re

import pytest

from rilmine import cli
from rilmine.callgraph import build_direct_cg, recover_vcalls
from rilmine.channel import FilterConfig, filter_commands
from rilmine.fixtures import gen_random
from rilmine.ir import load_program

EXPECTED_CRITERIA = tuple(range(1, 11))

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")
_results: dict[int, tuple[str, bool]] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION_RE.search(report.nodeid)
    if not m:
        return
    num, label = int(m.group(1)), m.group(2)
    if report.when == "call":
        _results[num] = (label, report.passed)
    elif report.failed:  # setup error counts as a failed criterion
        _results[num] = (label, False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not any(_CRITERION_RE.search(i.nodeid) for i in terminalreporter.stats.get("passed", [])) \
            and not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in EXPECTED_CRITERIA:
        label, ok = _results.get(num, ("not-run", False))
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {num}] {verdict} ({label})")


@pytest.fixture
def run_pipeline():
    """Full analysis pass: direct call graph, vcall recovery, channel filter,
    taint, concretization. Returns (callgraph, db, report)."""

    def run(p, config=None, keep_socket=False):
        if config is None and keep_socket:
            config = FilterConfig(keep_socket=True)
        cg = build_direct_cg(p)
        recover_vcalls(p, cg)
        db, report = filter_commands(p, cg, config=config)
        return cg, db, report

    return run


@pytest.fixture(scope="session")
def ir_corpus(tmp_path_factory):
    """(label, program) for every IR fixture kind, as ``rilmine fixtures``
    writes it and ``load_program`` reads it back, then for ``gen_random``
    seeds 0-49."""
    out = []
    for kind in cli.FIXTURE_KINDS:
        if kind in ("crashsuite", "mutsuite", "diffpair"):
            continue
        d = tmp_path_factory.mktemp(kind)
        assert cli.main(["fixtures", kind, "--out", str(d)]) == 0
        (path,) = d.glob("*.ir.json")
        out.append((kind, load_program(path.read_text(encoding="utf-8"))))
    for seed in range(50):
        out.append((f"seed {seed}", gen_random(seed=seed)[0]))
    return out
