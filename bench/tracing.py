"""Spans and counters around frogcrit's functions, installed from outside the package.

A Tracer replaces module attributes with wrappers for the length of one
traced pass and puts the originals back afterwards; the package source is
not touched.  Each name is patched in the module that looks it up at call
time: frogcrit.simulator.uniform_matrix (imported there from rng), not
frogcrit.rng.uniform_matrix.  Hot scalar functions get a counter only,
because a span per call would cost more than the call.

Spans are kept in memory as [name, start, end, parent index] and written
out by the caller when the run ends.  A span's self time is its duration
minus the durations of its child spans (one thread, so children never
overlap).
"""

import contextlib
import importlib
import time
from collections import defaultdict


def _uniform_matrix(tally, args, result, seconds):
    tally["uniform_matrix.bytes"] += result.nbytes


def _informed_counts(tally, args, result, seconds):
    replicates, n = args[0].shape
    hits = result[0]
    tally["line.informed"] += int(hits[:n].sum())
    tally["line.sites"] += replicates * n


def _simulate_frog(tally, args, result, seconds):
    tally["tree.replicates"] += result.replicates
    tally["tree.capped"] += int(result.reached_depth[-1])


def _growth_sequence(tally, args, result, seconds):
    # the regime test of growth_classifier, applied to the returned sequence
    regime = "sup" if (result[1:] > 1.0).any() else "sub"
    tally[f"growth.{regime}_s"] += seconds
    horizon = len(result) - 1
    tally["growth.madds"] += horizon * (horizon + 1) // 2


# (module, attribute, span name, observer of arguments and result)
SPANS = [
    ("frogcrit.cli", "_emit", "cli.emit", None),
    ("frogcrit.cli", "simulate_firework", "simulator.simulate_firework", None),
    ("frogcrit.cli", "simulate_frog", "simulator.simulate_frog", _simulate_frog),
    ("frogcrit.cli", "renewal_probabilities", "renewal.renewal_probabilities", None),
    ("frogcrit.cli", "growth_classifier", "renewal.growth_classifier", None),
    ("frogcrit.simulator", "uniform_matrix", "rng.uniform_matrix", _uniform_matrix),
    ("frogcrit.simulator", "_radii_from_uniforms", "simulator.radii", None),
    ("frogcrit.simulator", "_informed_counts", "simulator.informed_counts", _informed_counts),
    ("frogcrit.simulator", "_frog_replicate", "simulator.frog_replicate", None),
    ("frogcrit.critical", "solve_qc", "critical.solve_qc", None),
    ("frogcrit.renewal", "convergence_rate", "renewal.convergence_rate", None),
    ("frogcrit.renewal", "growth_classifier", "renewal.growth_classifier", None),
    ("frogcrit.renewal", "growth_sequence", "renewal.growth_sequence", _growth_sequence),
    ("frogcrit.renewal", "pmf_sequence", "distributions.pmf_sequence", None),
]

# (module, attribute, counter name)
COUNTERS = [
    ("frogcrit.simulator", "uniform", "rng.uniform.calls"),
    ("frogcrit.simulator", "_child_number", "simulator.tree.steps"),
    ("frogcrit.critical", "_series_exceeds_one", "critical.series_evals"),
    ("frogcrit.critical", "survival_series", "critical.series_evals"),
    ("frogcrit.renewal", "_series_exceeds_one", "renewal.series_evals"),
    ("frogcrit.renewal", "_generating_function", "renewal.series_evals"),
]

# Every per-layer metric of a traced run, with its unit.
PER_LAYER = {
    "rng.uniform_matrix.s": "s",
    "rng.uniform_matrix.calls": "count",
    "rng.uniform_matrix.mb": "MB",
    "simulator.radii.s": "s",
    "simulator.informed_counts.s": "s",
    "simulator.line.useful_frac": "frac",
    "rng.uniform.calls": "count",
    "rng.uniform.per_replicate": "count",
    "simulator.frog_replicate.s": "s",
    "simulator.tree.steps": "count",
    "simulator.tree.capped_frac": "frac",
    "renewal.growth_sequence.sub_s": "s",
    "renewal.growth_sequence.sup_s": "s",
    "renewal.growth_sequence.madds": "count",
    "critical.solve_qc.s": "s",
    "critical.series_evals": "count",
    "renewal.convergence_rate.s": "s",
    "renewal.series_evals": "count",
    "renewal.renewal_probabilities.s": "s",
    "distributions.pmf_sequence.s": "s",
    "cli.emit.s": "s",
    "trace.home_share": "frac",
    "trace.overhead_frac": "frac",
    "trace.unattributed_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.tally = defaultdict(float)
        self._stack = []
        self._saved = []

    def _span(self, name, fn, observe=None):
        spans, stack, tally = self.spans, self._stack, self.tally

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if observe is not None:
                observe(tally, args, result, end - start)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _take(self, module_name, attr):
        """The module and the function to wrap, remembered for restoring."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        return module, original

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the length of the block."""
        try:
            for module_name, attr, name, observe in SPANS:
                module, fn = self._take(module_name, attr)
                setattr(module, attr, self._span(name, fn, observe))
            for module_name, attr, key in COUNTERS:
                module, fn = self._take(module_name, attr)
                setattr(module, attr, self._counter(key, fn))
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    def run(self, name, fn, *args):
        """Call fn(*args) as a root span named `name`."""
        return self._span(name, fn)(*args)

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), self_s in zip(self.spans, self._self_times()):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
        return dict(out)

    def layer_metrics(self, home_layer) -> tuple[float, dict]:
        """(traced wall seconds, per-layer metrics) of this pass.

        trace.overhead_frac needs the untraced passes and is left to the caller.
        """
        spans = self.summary()
        roots = [i for i, s in enumerate(self.spans) if s[3] == -1]
        wall = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        self_times = self._self_times()
        root_self = sum(self_times[i] for i in roots)

        def busy(name):
            return spans.get(name, {"s": 0.0})["s"]

        t, c = self.tally, self.counts
        m = {
            "rng.uniform_matrix.s": busy("rng.uniform_matrix"),
            "rng.uniform_matrix.calls": spans.get("rng.uniform_matrix", {"calls": 0})["calls"],
            "rng.uniform_matrix.mb": t["uniform_matrix.bytes"] / 1e6,
            "simulator.radii.s": busy("simulator.radii"),
            "simulator.informed_counts.s": busy("simulator.informed_counts"),
            "simulator.line.useful_frac": _ratio(t["line.informed"], t["line.sites"]),
            "rng.uniform.calls": c["rng.uniform.calls"],
            "rng.uniform.per_replicate": _ratio(c["rng.uniform.calls"], t["tree.replicates"]),
            "simulator.frog_replicate.s": busy("simulator.frog_replicate"),
            "simulator.tree.steps": c["simulator.tree.steps"],
            "simulator.tree.capped_frac": _ratio(t["tree.capped"], t["tree.replicates"]),
            "renewal.growth_sequence.sub_s": t["growth.sub_s"],
            "renewal.growth_sequence.sup_s": t["growth.sup_s"],
            "renewal.growth_sequence.madds": int(t["growth.madds"]),
            "critical.solve_qc.s": busy("critical.solve_qc"),
            "critical.series_evals": c["critical.series_evals"],
            "renewal.convergence_rate.s": busy("renewal.convergence_rate"),
            "renewal.series_evals": c["renewal.series_evals"],
            "renewal.renewal_probabilities.s": busy("renewal.renewal_probabilities"),
            "distributions.pmf_sequence.s": busy("distributions.pmf_sequence"),
            "cli.emit.s": busy("cli.emit"),
            "trace.unattributed_s": root_self,
        }
        m["trace.home_share"] = _ratio(sum(m[k] for k in home_layer), wall)
        return wall, m
