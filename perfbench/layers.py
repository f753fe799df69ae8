"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces each traced public function by a wrapper in the
namespace of the module that calls it (for example
``mlblue.allocate.solve_sdp``), and ``remove`` puts the originals back. A
span is [name, start, end, parent span, operation id, extra]; spans stay in
memory until the run writes them out. The per-layer metrics of one round
are computed from the spans of that round's operations.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (metric prefix, module holding the name, attribute) of every traced call;
# a class attribute stands for a method called through the class
TARGETS = (
    ("config.load", "mlblue.cli", "load_problem"),
    ("models.enumerate", "mlblue.config", "enumerate_groups"),
    ("estimator.system", "mlblue.estimator:BlueSystem", "from_covariance"),
    ("estimator.variance", "mlblue.allocate", "blue_variance"),
    ("estimator.variance", "mlblue.runner", "blue_variance"),
    ("estimator.combine", "mlblue.runner", "combine_samples"),
    ("sdp.solve", "mlblue.allocate", "solve_sdp"),
    ("allocate.solve", "mlblue.cli", "solve_mosap"),
    ("allocate.solve", "mlblue.allocate", "solve_mosap"),
    ("allocate.project", "mlblue.cli", "integer_projection"),
    ("synthetic.draw", "mlblue.synthetic:SyntheticSuite", "draw_group"),
    ("runner.estimate", "mlblue.cli", "run_estimate"),
    ("baselines.search", "mlblue.cli", "multi_output_baseline"),
    ("cli.emit", "mlblue.cli", "emit_outputs"),
)

# per-layer metrics: name -> unit, in the order they are reported
PER_LAYER = {
    "config.load_s": "s",
    "models.enumerate_s": "s",
    "estimator.systems_s": "s",
    "estimator.system_builds": "count",
    "estimator.variance_calls": "count",
    "estimator.variance_s": "s",
    "estimator.combine_calls": "count",
    "estimator.combine_s": "s",
    "sdp.iterations": "count",
    "sdp.solve_s": "s",
    "sdp.iter_ms": "ms",
    "sdp.cpu_s": "s",
    "allocate.build_s": "s",
    "allocate.project_s": "s",
    "allocate.project_evals": "count",
    "synthetic.draw_calls": "count",
    "synthetic.draw_s": "s",
    "runner.estimate_self_s": "s",
    "baselines.search_s": "s",
    "cli.emit_s": "s",
    "process.threads": "count",
}


def os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _resolve(where):
    module, _, cls = where.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans of the wrapped calls; ``op`` tags them with an operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None
        self.peak_threads = 0

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def sample_threads(self):
        self.peak_threads = max(self.peak_threads, os_threads())

    def _wrap(self, name, fn):
        if name == "sdp.solve":
            def traced(*args, **kwargs):
                span = self.open(name)
                cpu = time.process_time()
                try:
                    sol = fn(*args, **kwargs)
                finally:
                    self.close(span)
                span[5] = {"iterations": int(sol.iterations),
                           "cpu_s": time.process_time() - cpu}
                self.sample_threads()
                return sol
        else:
            def traced(*args, **kwargs):
                span = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(span)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, where, attr in TARGETS:
            owner = _resolve(where)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))

    def remove(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def layer_metrics(spans, op_ids):
    """Per-layer metrics of the operations ``op_ids`` (one round)."""
    ops = set(op_ids)
    total = defaultdict(float)
    calls = defaultdict(int)
    covered = defaultdict(float)  # time of direct children, per parent layer
    in_project = {}
    iterations = 0
    sdp_cpu = 0.0
    for sid, (name, start, end, parent, op, extra) in enumerate(spans):
        in_project[sid] = name == "allocate.project" or in_project.get(parent, False)
        if op not in ops:
            continue
        if parent >= 0:
            covered[spans[parent][0]] += end - start
        total[name] += end - start
        calls[name] += 1
        if name == "estimator.variance" and in_project[sid]:
            calls["project_evals"] += 1
        if name == "sdp.solve":
            iterations += extra["iterations"]
            sdp_cpu += extra["cpu_s"]

    def self_time(layer):
        return total[layer] - covered[layer]

    return {
        "config.load_s": total["config.load"],
        "models.enumerate_s": total["models.enumerate"],
        "estimator.systems_s": total["estimator.system"],
        "estimator.system_builds": calls["estimator.system"],
        "estimator.variance_calls": calls["estimator.variance"],
        "estimator.variance_s": total["estimator.variance"],
        "estimator.combine_calls": calls["estimator.combine"],
        "estimator.combine_s": total["estimator.combine"],
        "sdp.iterations": iterations,
        "sdp.solve_s": total["sdp.solve"],
        "sdp.iter_ms": 1e3 * total["sdp.solve"] / iterations if iterations else 0.0,
        "sdp.cpu_s": sdp_cpu,
        "allocate.build_s": self_time("allocate.solve"),
        "allocate.project_s": total["allocate.project"],
        "allocate.project_evals": calls["project_evals"],
        "synthetic.draw_calls": calls["synthetic.draw"],
        "synthetic.draw_s": total["synthetic.draw"],
        "runner.estimate_self_s": self_time("runner.estimate"),
        "baselines.search_s": total["baselines.search"],
        "cli.emit_s": total["cli.emit"],
    }
