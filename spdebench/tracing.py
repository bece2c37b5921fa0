"""Spans recorded around calls into spdesim's modules, from outside the package.

The traced run replaces, for its duration, every public spdesim function in
the namespace of each spdesim module that holds it: the names a module
imported from another spdesim module as well as its own (so internal and
recursive calls through module globals are seen too).  Methods named in
``METHODS`` and the coefficient evaluators of a triple are wrapped the same
way.  Nothing inside ``src/`` changes, and ``uninstall`` puts every original
back.

A span records its name, start, end, parent span and the key of the path it
belongs to.  The key is ``bundle.master_seed`` for calls that receive a noise
bundle, the ``master_seed`` argument of ``sample_bundle``, and otherwise the
parent's key.  Spans are kept in flat in-memory arrays and written out once,
when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import re
import time
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "rng",
    "noise",
    "space",
    "fixtures",
    "averaging",
    "coefficients",
    "schemes",
    "harness",
    "config",
    "cli",
)
METHODS = (("coefficients", "MarkIntegral", "integral_sq"),)
EVALUATORS = ("eval_A", "eval_B", "eval_F", "jump_profile")
CHECK_IDS = {
    "check_monotonicity": "C1",
    "check_coercivity": "C2",
    "check_growth": "C3",
    "probe_hemicontinuity": "C4",
    "check_bf_bounds": "PropBF",
}

TAG_NONE, TAG_REFERENCE, TAG_RUNG = 0, 1, 2

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")


def valid_metric_name(name):
    """Letters, digits, '_', '.' and '-', starting with a letter or digit, <= 64."""
    return isinstance(name, str) and _METRIC_NAME.match(name) is not None


def self_times(start, end, parent):
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children cover their shared time once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    if not kids.size:
        return end - start
    order = kids[np.lexsort((start[kids], parent[kids]))]
    par = parent[order]
    origin = start.min()
    lo = np.maximum(start[order], start[par]) - origin
    hi = np.maximum(np.minimum(end[order], end[par]) - origin, lo)
    # running maximum of ``hi`` over each parent's children in start order:
    # lifting every parent's group above the earlier ones lets one
    # cumulative maximum serve all groups
    first = np.ones(par.size, dtype=bool)
    first[1:] = par[1:] != par[:-1]
    lift = (np.cumsum(first) - 1) * (hi.max() + 1.0)
    reach = np.maximum.accumulate(hi + lift) - lift
    before = np.empty_like(reach)
    before[0] = 0.0
    before[1:] = reach[:-1]
    before[first] = 0.0
    gain = np.maximum(hi - np.maximum(lo, before), 0.0)
    covered = np.bincount(par, weights=gain, minlength=start.size)
    return (end - start) - covered


class Tracer:
    """In-memory span store plus the counters the wrappers update."""

    def __init__(self, reference=None):
        self.reference = tuple(reference) if reference else None
        self.labels = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.key = array("Q")
        self.tag = array("b")
        self.counts = Counter()
        self.iterations = []
        self._stack = []
        self._patched = []

    # -- wrapping ---------------------------------------------------------

    def label_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def wrap(self, label, fn, key_of=None, tag_of=None, post=None):
        """A callable that records one span per call of ``fn``."""
        nid = self.label_id(label)
        name, start, end, parent, key, tag = (
            self.name, self.start, self.end, self.parent, self.key, self.tag
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1] if stack else -1
            name.append(nid)
            parent.append(up)
            key.append(key_of(args, kwargs) if key_of else (key[up] if up >= 0 else 0))
            tag.append(tag_of(args, kwargs) if tag_of else TAG_NONE)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            return post(result) if post else result

        return functools.wraps(fn)(traced)

    def wrap_triple(self, triple):
        """A copy of a coefficient triple whose evaluators are traced."""
        changes = {
            attr: self.wrap(f"fixtures.{attr}", getattr(triple, attr))
            for attr in EVALUATORS
            if getattr(triple, attr) is not None
        }
        return dataclasses.replace(triple, **changes)

    def _hooks(self, module_name, fn_name, fn):
        """Key, tag and result hooks for the functions that need them."""
        key_of = tag_of = post = None
        params = list(inspect.signature(fn).parameters)
        if fn_name == "sample_bundle":
            key_of = _arg_getter(params.index("master_seed"), "master_seed", int)
        elif "bundle" in params:
            key_of = _arg_getter(
                params.index("bundle"), "bundle", lambda b: int(b.master_seed)
            )
        if fn_name == "run_scheme" and module_name == "harness" and self.reference:
            config_of = _arg_getter(params.index("config"), "config", lambda c: c)
            ref = self.reference

            def tag_of(args, kwargs):
                c = config_of(args, kwargs)
                return TAG_REFERENCE if (c.n, c.m, c.l) == ref else TAG_RUNG

        if fn_name in ("run_explicit", "run_implicit"):
            post = self._count_steps
        if fn_name == "build_triple":
            post = self.wrap_triple
        return key_of, tag_of, post

    def _count_steps(self, traj):
        if traj.kind == "explicit":
            last = traj.m if traj.blow_up_step is None else traj.blow_up_step
            self.counts["schemes.explicit.steps"] += last - 1
        else:
            self.counts["schemes.implicit.steps"] += len(traj.solver_iterations)
            self.iterations.extend(traj.solver_iterations)
        return traj

    def install(self):
        """Replace spdesim's public functions and methods with traced ones."""
        mods = {m: importlib.import_module(f"spdesim.{m}") for m in MODULES}
        owners = {f"spdesim.{m}": m for m in MODULES}
        for where, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ not in owners
                ):
                    continue
                owner = owners[obj.__module__]
                label = f"{owner}.{CHECK_IDS.get(obj.__name__, obj.__name__)}"
                key_of, tag_of, post = self._hooks(where, obj.__name__, obj)
                self._patch(mod, attr, self.wrap(label, obj, key_of, tag_of, post))
        for owner, cls_name, meth in METHODS:
            cls = getattr(mods[owner], cls_name)
            self._patch(cls, meth, self.wrap(f"{owner}.{meth}", getattr(cls, meth)))

    def _patch(self, holder, attr, value):
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # -- results ----------------------------------------------------------

    def mark(self):
        """Position to cut per-block span ranges and counters at."""
        return len(self.start), Counter(self.counts), len(self.iterations)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "key": np.frombuffer(self.key, dtype=np.uint64),
            "tag": np.frombuffer(self.tag, dtype=np.int8),
        }

    def save(self, path):
        np.savez(path, labels=np.array(self.labels), **self.arrays())


def _arg_getter(index, name, convert):
    def get(args, kwargs):
        value = args[index] if len(args) > index else kwargs[name]
        return convert(value)

    return get


def exact_counts(tracer, paths, lo=0, hi=None, counts=None, iterations=None):
    """The counts that must repeat bit for bit for the same work and code.

    Covers spans ``lo:hi`` with the step ``counts`` and solver ``iterations``
    recorded over them (default: everything recorded).
    """
    arr = tracer.arrays()
    names, tags = arr["name"][lo:hi], arr["tag"][lo:hi]
    counts = tracer.counts if counts is None else counts
    iterations = tracer.iterations if iterations is None else iterations
    per_label = np.bincount(names, minlength=len(tracer.labels))
    ids = {label: i for i, label in enumerate(tracer.labels)}

    def n(label):
        return int(per_label[ids[label]]) if label in ids else 0

    steps = counts["schemes.explicit.steps"] + counts["schemes.implicit.steps"]
    evals = sum(n(f"fixtures.{e}") for e in EVALUATORS)
    refs = int(np.count_nonzero(tags == TAG_REFERENCE))
    return {
        "harness.reference_runs_per_path": refs / paths if paths else 0.0,
        "schemes.steps": steps,
        "fixtures.evals_per_step": evals / steps if steps else 0.0,
        "noise.build_partition.calls": n("noise.build_partition"),
        "rng.make_generator.calls": n("rng.make_generator"),
        "schemes.solver_iterations.total": int(sum(iterations)),
    }


def layer_metrics(tracer, paths, ranges):
    """Per-layer metrics over every recorded span, as (value, unit) pairs.

    ``ranges`` are the ``(lo, hi)`` span ranges of the traced blocks, which
    together hold every span; self times are computed one block at a time.
    """
    arr = tracer.arrays()
    names, tags = arr["name"], arr["tag"]
    dur = arr["end"] - arr["start"]
    own = np.concatenate([
        self_times(arr["start"][lo:hi], arr["end"][lo:hi], arr["parent"][lo:hi] - lo)
        for lo, hi in ranges
    ])
    labels = tracer.labels
    calls = np.bincount(names, minlength=len(labels))
    self_s = np.bincount(names, weights=own, minlength=len(labels))
    total_s = np.bincount(names, weights=dur, minlength=len(labels))
    ids = {label: i for i, label in enumerate(labels)}

    def n(label):
        return int(calls[ids[label]]) if label in ids else 0

    def own_s(label):
        return float(self_s[ids[label]]) if label in ids else 0.0

    def incl_s(label):
        return float(total_s[ids[label]]) if label in ids else 0.0

    def per_step(label, steps):
        return 1e6 * incl_s(label) / steps if steps else 0.0

    iters = tracer.iterations
    out = {name: (value, "count") for name, value in exact_counts(tracer, paths).items()}
    out.update({
        "harness.reference_run_s": (float(dur[tags == TAG_REFERENCE].sum()), "s"),
        "harness.rung_run_s": (float(dur[tags == TAG_RUNG].sum()), "s"),
        "harness.aggregate_s": (incl_s("harness.neumaier_sum"), "s"),
        "schemes.explicit.us_per_step": (
            per_step("schemes.run_explicit", tracer.counts["schemes.explicit.steps"]),
            "us",
        ),
        "schemes.implicit.us_per_step": (
            per_step("schemes.run_implicit", tracer.counts["schemes.implicit.steps"]),
            "us",
        ),
        "schemes.solve_implicit_step.calls": (n("schemes.solve_implicit_step"), "count"),
        "schemes.solve_implicit_step.self_s": (own_s("schemes.solve_implicit_step"), "s"),
        "schemes.solver_iterations.mean": (float(np.mean(iters)) if iters else 0.0, "count"),
        "schemes.solver_iterations.max": (int(max(iters, default=0)), "count"),
        "averaging.impl_A.calls": (n("averaging.impl_A"), "count"),
        "noise.sample_bundle.calls": (n("noise.sample_bundle"), "count"),
        "noise.sample_bundle.self_s": (own_s("noise.sample_bundle"), "s"),
        "noise.coarsen_wiener.self_s": (own_s("noise.coarsen_wiener"), "s"),
        "space.norms.calls": (n("space.norms"), "count"),
        "coefficients.integral_sq.calls": (n("coefficients.integral_sq"), "count"),
        "coefficients.integral_sq.self_s": (own_s("coefficients.integral_sq"), "s"),
    })
    for check in CHECK_IDS.values():
        out[f"coefficients.{check}.s"] = (incl_s(f"coefficients.{check}"), "s")
    layer_of = np.array([label.split(".", 1)[0] for label in labels] or [""])
    for layer in MODULES:
        mine = layer_of == layer
        out[f"{layer}.self_s"] = (float(self_s[mine].sum()), "s")
        out[f"{layer}.calls"] = (int(calls[mine].sum()), "count")
    out["trace.spans"] = (int(names.size), "count")
    return out
