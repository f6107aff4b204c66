"""In-memory span recorder that times toyqft's layers from outside.

`traced(recorder)` wraps each layer's public functions in every toyqft
module that holds a reference to them, so calls between layers (for
example `ac_operator` calling `annihilator`) nest as child spans.  A
span's self time is its duration minus the durations of its children.
"""

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = {
    "fock": ("build_space",),
    "ladder": ("annihilator", "creator", "ac_operator", "commutator", "anticommutator"),
    "fields": ("free_field", "interaction_field", "self_interaction"),
    "spacetime": ("field_at",),
    "spectral": ("eigh", "unitary_exp"),
    "scatter": ("hamiltonian", "hamiltonian_density", "scattering_operator", "probability_table"),
    "cli": ("main",),
}


def _matrix_dim(args, result):
    return {"n": args[0].space.dimension}


def _decomposition(d):
    return {"n": d.dimension, "groups": len(d.groups)}


# Quantities recorded on a span, from its arguments and result.  They are
# computed after the span closes, inside a "trace.attrs" span of their own.
ATTRS = {
    "fock.build_space": lambda args, result: {"n": result.dimension},
    "ladder.commutator": _matrix_dim,
    "ladder.anticommutator": _matrix_dim,
    "spectral.eigh": lambda args, result: _decomposition(result),
    "spectral.unitary_exp": lambda args, result: _decomposition(args[0]),
    "scatter.hamiltonian": lambda args, result: {
        "n": result.space.dimension,
        "nnz": int((result.mat != 0).sum()),
    },
}


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Spans in call order; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = []

    def open(self, name):
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        span = Span(name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._open.pop()


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _wrap(recorder, name, fn):
    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if attrs is not None:
            hook = recorder.open("trace.attrs")
            span.attrs = attrs(args, result)
            recorder.close(hook)
        return result

    return wrapper


@contextmanager
def traced(recorder):
    """Route every toyqft reference to a traced function through a span
    wrapper; restore the originals on exit."""
    import toyqft.cli  # noqa: F401  (loads every layer)

    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "toyqft" or name.startswith("toyqft."))
    ]
    swaps = []
    for layer, names in LAYERS.items():
        home = sys.modules[f"toyqft.{layer}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapper = _wrap(recorder, f"{layer}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        swaps.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    try:
        yield recorder
    finally:
        for mod, attr, original in reversed(swaps):
            setattr(mod, attr, original)


def op_summaries(spans, walls):
    """Per op: traced wall time, self time by layer, and the remainder of
    the wall time that no span covers (the harness around `cli.main`)."""
    own = self_times(spans)
    by_op = [{} for _ in walls]
    for span, t in zip(spans, own):
        layer = span.name.split(".")[0]
        by_op[span.op][layer] = by_op[span.op].get(layer, 0.0) + t
    return [
        {"wall_s": wall, "self_s": layers, "remainder_s": wall - sum(layers.values())}
        for wall, layers in zip(walls, by_op)
    ]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, walls, untraced_wall, failed):
    """Per-layer metrics of one traced run of len(walls) ops.  Counts and
    self times are per op; `trace.overhead_frac` compares the traced wall
    time with the untraced wall time of the same ops."""
    ops = len(walls)
    own = self_times(spans)
    calls, selfs, attrs = {}, {}, {}
    for span, t in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        selfs[span.name] = selfs.get(span.name, 0.0) + t
        if span.attrs:
            attrs.setdefault(span.name, []).append(span.attrs)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer, names in LAYERS.items():
        if layer == "cli":
            continue
        for fn in names:
            put(f"{layer}.{fn}.calls", calls.get(f"{layer}.{fn}", 0) / ops, "calls/op")
            put(f"{layer}.{fn}.self_s", selfs.get(f"{layer}.{fn}", 0.0) / ops, "s/op")
        if len(names) > 1:
            total = sum(selfs.get(f"{layer}.{fn}", 0.0) for fn in names)
            put(f"{layer}.self_s", total / ops, "s/op")

    spaces = attrs.get("fock.build_space", [])
    products = attrs.get("ladder.commutator", []) + attrs.get("ladder.anticommutator", [])
    decomps = attrs.get("spectral.eigh", [])
    exps = attrs.get("spectral.unitary_exp", [])
    hams = attrs.get("scatter.hamiltonian", [])
    put("fock.dimension", max((a["n"] for a in spaces), default=0), "count")
    # Two dense complex n x n products per (anti)commutator, 8 n^3 flops each.
    put("ladder.matmul_gflop", sum(16 * a["n"] ** 3 for a in products) / 1e9 / ops, "GFLOP/op")
    put("spectral.groups", _mean([a["groups"] for a in decomps]), "count")
    # Dense projectors unitary_exp builds: one n x n complex128 per group.
    put("spectral.projector_mb", max((a["groups"] * a["n"] ** 2 * 16 / 2**20 for a in exps), default=0), "MiB")
    put("scatter.h_nnz", _mean([a["nnz"] for a in hams]), "count")
    put("scatter.h_fill", _mean([a["nnz"] / a["n"] ** 2 for a in hams]), "ratio")
    put("cli.self_s", selfs.get("cli.main", 0.0) / ops, "s/op")
    put("cli.ops", ops, "count")
    put("cli.failed", failed, "count")
    put("trace.attrs_s", selfs.get("trace.attrs", 0.0) / ops, "s/op")
    put("trace.overhead_frac", sum(walls) / untraced_wall - 1, "ratio")
    put("trace.remainder_frac", (sum(walls) - sum(own)) / sum(walls), "ratio")
    return metrics
