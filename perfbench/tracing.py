"""Layer spans for the traced run, recorded from outside catbell.

Each traced function is replaced on the module whose global the caller looks
up, so ``catbell.protocols.apply_displacement`` is the name the pipelines
call and ``catbell.fock.expm`` is the SciPy function as ``fock`` calls it.
Spans (name, start, end, parent, call id) stay in memory until the run ends.
A wrapper records nothing outside a benchmark call, so the correctness gate,
which calls the closed forms itself, never shows up in a layer.

``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which all processes
share, so spans written by a traced child process land on the parent's
timeline and nest inside the call that started the child.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT = "call"

# (module whose global the caller looks up, attribute, span name)
SPANS = (
    ("catbell.cli", "main", "cli.main"),
    ("catbell.cli", "load_config", "cli.load_config"),
    ("catbell.cli", "protocol_report", "protocols.report"),
    ("catbell.experiment", "protocol_report", "protocols.report"),
    ("catbell.protocols", "build_analysis_state", "protocols.analysis_state"),
    ("catbell.fock", "build_analysis_state", "protocols.analysis_state"),
    ("catbell.protocols", "apply_displacement", "optics.apply_displacement"),
    ("catbell.protocols", "apply_beam_splitter", "optics.apply_beam_splitter"),
    ("catbell.protocols", "add_mode", "optics.add_mode"),
    ("catbell.states", "inner_product", "states.inner_product"),
    ("catbell.protocols", "project_single_photon", "states.project"),
    ("catbell.protocols", "project_vacuum", "states.project"),
    ("catbell.fock", "oracle_protocol_prob", "fock.oracle"),
    ("catbell.fock", "expm", "fock.expm"),
    ("catbell.fock", "expm_multiply", "fock.expm_multiply"),
    ("catbell.experiment", "max_range", "experiment.max_range"),
    ("catbell.experiment", "optimize_phi", "experiment.optimize_phi"),
    ("catbell.experiment", "monte_carlo_run", "experiment.monte_carlo"),
    ("catbell.experiment", "monte_carlo_blocks", "experiment.mc_blocks_path"),
)

# Functions too small to time (about 1 us each) are counted, keyed by the
# span they ran under: "protocols.closed_form@experiment.max_range".
COUNTS = (
    ("catbell.experiment", "success_prob", "protocols.closed_form"),
    ("catbell.experiment", "_block_counts", "experiment.mc_block"),
)


def _overlap_evals(a, b):
    """Coherent overlaps one inner_product evaluates: branches_a x branches_b x modes."""
    return {"states.overlap_evals": len(a.branches) * len(b.branches) * len(a.modes)}


def _expm_size(matrix):
    dim = matrix.shape[0]
    return {"fock.expm_dim": dim, "fock.dense_bytes": 16 * dim * dim}


# Counts computed from a traced call's arguments, not measured.
PROBES = {"states.inner_product": _overlap_evals, "fock.expm": _expm_size}


def cache_counts() -> dict:
    """Hits and misses of the fock lru_caches in this process."""
    from catbell import fock
    out = {}
    for name, fn in (("displacement", fock._displacement_matrix), ("bs", fock._bs_generator)):
        info = fn.cache_info()
        out[f"fock.{name}_cache_hits"] = info.hits
        out[f"fock.{name}_cache_misses"] = info.misses
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, call id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.calls = 0
        self._patched = []

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, functools.partial(self._span, name, PROBES.get(name)))
        for module, attr, name in COUNTS:
            self._patch(module, attr, functools.partial(self._count, name))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, module, attr, make):
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._patched.append((mod, attr, original))
        setattr(mod, attr, functools.wraps(original)(make(original)))

    def _span(self, name, probe, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if probe is not None:
                counts.update(probe(*args, **kwargs))
            record = [name, perf_counter(), 0.0, stack[-1], self.calls]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            if stack:
                counts[f"{name}@{spans[stack[-1]][0]}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def call(self):
        """Root span of one benchmark call; wrapped functions record only inside one."""
        index = len(self.spans)
        record = [ROOT, perf_counter(), 0.0, -1, self.calls]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield index
        finally:
            record[2] = perf_counter()
            self.stack.pop()
            self.calls += 1

    def merge(self, dump: dict, parent: int) -> None:
        """Attach a child process's spans under `parent`; its root is renamed child.run."""
        base = len(self.spans)
        call_id = self.spans[parent][4]
        for name, start, end, up, _ in dump["spans"]:
            self.spans.append(["child.run" if name == ROOT else name, start, end,
                               parent if up < 0 else base + up, call_id])
        self.counts.update(dump["counts"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, counts, wall_s: float) -> dict:
    """Per-layer figures; times and counts are per benchmark call."""
    total, own, n = defaultdict(float), defaultdict(float), Counter()
    for (name, start, end, _, _), s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += s
        n[name] += 1
    calls = max(n[ROOT], 1)

    def per_call_ms(table, *names):
        return 1e3 * sum(table[x] for x in names) / calls

    def counted(prefix):
        return sum(v for k, v in counts.items() if k.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    optics = [x for x in n if x.startswith("optics.")]
    hits_d, miss_d = counts.get("fock.displacement_cache_hits", 0), counts.get("fock.displacement_cache_misses", 0)
    hits_b, miss_b = counts.get("fock.bs_cache_hits", 0), counts.get("fock.bs_cache_misses", 0)
    blocks = counted("experiment.mc_block@")
    return {
        "cli.main_self_ms": per_call_ms(own, "cli.main"),
        "cli.load_config_ms": per_call_ms(total, "cli.load_config"),
        "protocols.report_calls": n["protocols.report"] / calls,
        "protocols.report_ms": per_call_ms(total, "protocols.report"),
        "protocols.report_self_ms": per_call_ms(own, "protocols.report"),
        "protocols.analysis_state_ms": per_call_ms(total, "protocols.analysis_state"),
        "protocols.closed_form_calls": counted("protocols.closed_form@") / calls,
        "optics.calls": sum(n[x] for x in optics) / calls,
        "optics.self_ms": per_call_ms(own, *optics),
        "states.inner_product_calls": n["states.inner_product"] / calls,
        "states.inner_product_ms": per_call_ms(total, "states.inner_product"),
        "states.project_calls": n["states.project"] / calls,
        "states.project_ms": per_call_ms(total, "states.project"),
        "states.overlap_evals": counts.get("states.overlap_evals", 0) / calls,
        "states.ns_per_overlap": ratio(1e9 * total["states.inner_product"],
                                       counts.get("states.overlap_evals", 0)),
        "fock.oracle_calls": n["fock.oracle"] / calls,
        "fock.oracle_ms": per_call_ms(total, "fock.oracle"),
        "fock.oracle_self_ms": per_call_ms(own, "fock.oracle"),
        "fock.expm_calls": n["fock.expm"] / calls,
        "fock.expm_ms": per_call_ms(total, "fock.expm"),
        "fock.expm_multiply_calls": n["fock.expm_multiply"] / calls,
        "fock.expm_multiply_ms": per_call_ms(total, "fock.expm_multiply"),
        "fock.displacement_cache_hit_ratio": ratio(hits_d, hits_d + miss_d),
        "fock.displacement_cache_lookups": (hits_d + miss_d) / calls,
        "fock.bs_cache_hit_ratio": ratio(hits_b, hits_b + miss_b),
        "fock.bs_cache_lookups": (hits_b + miss_b) / calls,
        "fock.dim_mean": ratio(counts.get("fock.expm_dim", 0), n["fock.expm"]),
        "fock.dense_bytes": counts.get("fock.dense_bytes", 0) / calls,
        "experiment.max_range_ms": per_call_ms(total, "experiment.max_range"),
        "experiment.max_range_evals": counts.get("protocols.closed_form@experiment.max_range", 0) / calls,
        "experiment.optimize_phi_ms": per_call_ms(total, "experiment.optimize_phi"),
        "experiment.optimize_phi_evals": counts.get("protocols.closed_form@experiment.optimize_phi", 0) / calls,
        "experiment.monte_carlo_ms": per_call_ms(total, "experiment.monte_carlo"),
        "experiment.mc_blocks": blocks / calls,
        "experiment.mc_us_per_block": ratio(1e6 * (own["experiment.monte_carlo"]
                                                   + own["experiment.mc_blocks_path"]), blocks),
        "experiment.mc_blocks_ms": per_call_ms(total, "experiment.mc_blocks_path"),
        "import.in_call_ms": per_call_ms(total, "import.in_call"),
        "trace.calls": float(n[ROOT]),
        "trace.call_ms": per_call_ms(total, ROOT),
        "trace.self_sum_frac": ratio(sum(own.values()), wall_s),
        "trace.unattributed_frac": ratio(own[ROOT] + own["child.run"], wall_s),
    }
