"""Spans and counters around the calls into each rilmine layer.

``Tracer.install`` replaces the public functions that ``rilmine.cli`` and
``rilmine.channel`` call with wrappers that record a span (name, start,
end, parent span, operation id) and the counters each layer's result
carries; ``Tracer.remove`` puts the originals back. Spans stay in memory
until ``dump`` writes them out. The wrappers run on whichever thread the
CLI uses; with one worker, only one thread records at a time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_load(c, p):
    c["ir.insns"] += sum(len(b.instructions) for f in p.functions for b in f.blocks)


def _count_cg(c, cg):
    c["callgraph.edges"] += len(cg.edges)
    c["callgraph.virtual_edges"] += len(cg.virtual_edges())
    c["callgraph.unresolved"] += len(cg.unresolved)


def _count_filter(c, result):
    db, report = result
    c["channel.sites"] += report.sites_total
    c["channel.kept"] += report.kept
    c["taint.incomplete"] += report.incomplete_traces
    c["commands.records"] += len(db.records)


def _count_backward(c, traces):
    c["taint.traces"] += len(traces)


def _count_forward(c, trace):
    c["taint.traces"] += 1


def _count_campaign(c, result):
    _findings, stats = result
    c["harness.probes"] += stats.probes
    c["harness.mutation_execs"] += stats.mutation_execs
    c["harness.corpus_adds"] += stats.corpus_adds


# (module, attribute, span name, counter hook). The CLI and the channel
# filter look these names up in their own module at call time.
HOOKS = (
    ("rilmine.cli", "load_program", "ir.load_program", _count_load),
    ("rilmine.cli", "build_direct_cg", "callgraph.build_direct_cg", None),
    ("rilmine.cli", "recover_vcalls", "callgraph.recover_vcalls", _count_cg),
    ("rilmine.cli", "filter_commands", "channel.filter_commands", _count_filter),
    ("rilmine.channel", "resolve_channel", "channel.resolve_channel", None),
    ("rilmine.channel", "backward_taint", "taint.backward_taint", _count_backward),
    ("rilmine.channel", "concretize_payload", "taint.concretize_payload", None),
    ("rilmine.channel", "forward_taint", "taint.forward_taint", _count_forward),
    ("rilmine.cli", "save_db", "commands.save_db", None),
    ("rilmine.cli", "save_db_json", "commands.save_db_json", None),
    ("rilmine.cli", "load_db", "commands.load_db", None),
    ("rilmine.cli", "db_diff", "commands.diff", None),
    ("rilmine.cli", "load_sim_config", "sim.load_sim_config", None),
    ("rilmine.cli", "campaign", "harness.campaign", _count_campaign),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = 0
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self._op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            n, start, _, par, op = self.spans[idx]
            self.spans[idx] = (n, start, time.perf_counter(), par, op)

    @contextmanager
    def operation(self, name: str):
        """A top-level span with a fresh operation id; returns the id."""
        self._op += 1
        with self.span(name):
            yield self._op

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                # its own span, so counting is not charged to the caller's self time
                with self.span("trace.counters"):
                    hook(self.counters[self._op], result)
            return result
        return traced

    def install(self):
        import importlib
        for mod_name, attr, name, hook in HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, hook))

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def totals(self, op: int) -> dict[str, float]:
        """Seconds per span name within one operation, and the self time of
        each span that has children (its duration minus theirs)."""
        out: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, o in self.spans:
            if o != op:
                continue
            out[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        for idx, covered in child.items():
            name, start, end, _, _ = self.spans[idx]
            out[name + ".self"] += (end - start) - covered
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                          for n, s, e, p, o in self.spans],
                "counters": {str(op): dict(c) for op, c in self.counters.items()},
            }, fh)
