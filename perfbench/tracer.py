"""Spans around calls into ``sip_effmass``, recorded from outside the package.

``install`` replaces every public function of the six modules at every
name that binds it (``from ... import`` copies included, as well as the
CLI's dispatch table) and the public methods of ``MuMap`` and
``FamilyModel`` on the class, with a wrapper that records a span: name,
start, end, parent span, task id and thread.  Spans live in memory until
the run writes them out.  A span opened on a worker thread with no open
span of its own takes the client thread's innermost open span as its
parent, so ``sweep`` points nest under ``run_sweep``.

The self time of a span is its duration minus the part of it covered by
its children (the union of their intervals, so overlapping pool-thread
children are not counted twice).  The speed sampler of ``speed.py``
interrupts the client thread while a task runs; ``attach_samples`` makes
each of its intervals a child span of the span it interrupted, so self
times exclude the sampling.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from collections import defaultdict

MODULES = ("massprofile", "families", "spectra", "groundstate", "verify", "cli")
CLASSES = (("massprofile", "MuMap"), ("families", "FamilyModel"))

# span fields
NAME, START, END, PARENT, TASK, THREAD, SIZE, EXTRA = range(8)
SAMPLE = "perfbench.speed_sample"  # a speed-sampler interval, counted in no layer


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# points a call asks for, keyed by span name
SIZES = {
    "massprofile.MuMap.mu_array": lambda a, k: _size(_arg(a, k, 1, "xs")),
    "verify.discretize": lambda a, k: _arg(a, k, 2, "grid").n_points,
    "verify.discretize_model": lambda a, k: _arg(a, k, 1, "grid").n_points,
    "verify.lowest_eigenvalues": lambda a, k: _size(_arg(a, k, 0, "diag")),
}
FIELD_EVALUATORS = (
    "superpotential_W", "potential_V1", "potential_V2", "effective_pair",
    "effective_superpotential", "weff_of_mu", "effective_pair_of_mu", "phi",
)
for _m in FIELD_EVALUATORS:
    SIZES[f"families.FamilyModel.{_m}"] = lambda a, k: _size(a[1] if len(a) > 1 else k.get("x", k.get("mu")))

# Layers: metric prefix -> (spans counted as calls, helper spans whose
# self time also belongs to the layer).
LAYERS = {
    "massprofile.mumap_build": (("massprofile.MuMap.__init__",), ()),
    "massprofile.mu_array": (("massprofile.MuMap.mu_array",), ()),
    # the scalar forward map is only called while inverting
    "massprofile.mu_inverse": (("massprofile.MuMap.mu_inverse",), ("massprofile.MuMap.mu",)),
    "massprofile.registry": (("massprofile.registry_get",), ()),
    "families.fields": (tuple(f"families.FamilyModel.{m}" for m in FIELD_EVALUATORS),
                        ("families.FamilyModel.phi_from_mu", "families.FamilyModel.ode_coeffs")),
    "families.recursion": (("families.FamilyModel.next_params", "families.FamilyModel.param_chain",
                            "families.FamilyModel.remainder_R"), ()),
    "families.shape_residual": (("families.FamilyModel.shape_invariance_residual",),
                                ("families.FamilyModel.shape_invariance_residual_of_mu",)),
    "families.build": (("families.FamilyModel.__init__",),
                       ("families.FamilyModel.coulomb", "families.FamilyModel.morse_reduced",
                        "families.FamilyModel.with_params", "families.validate",
                        "families.canonical_family")),
    "spectra.engines": (tuple(f"spectra.{f}" for f in (
        "spectrum_sum", "spectrum_closed", "pt_reduced_spectrum", "morse_reduced_spectrum",
        "coulomb_spectrum_sum", "coulomb_closed_level", "coulomb_spectrum_nr",
        "coulomb_quantum_map")), ()),
    "groundstate.psi0_generic": (("groundstate.psi0_generic",), ()),
    "groundstate.psi0_closed": (("groundstate.psi0_closed", "groundstate.psi0_closed_table"), ()),
    "groundstate.annihilation_residual": (("groundstate.annihilation_residual",), ()),
    "verify.discretize": (("verify.discretize", "verify.discretize_model"), ()),
    "verify.eigensolve": (("verify.lowest_eigenvalues",), ()),
    "verify.compare": (("verify.compare", "verify.morse_reduced_compare"), ("verify.rayleigh_quotient",)),
    "cli.build": (("cli.load_config", "cli.build_profile", "cli.build_model", "cli.build_grid"), ()),
    # serialization and glue: the subcommand runners write the artifacts
    "cli.main": (("cli.main",), ("cli.make_parser", "cli.run_spectrum", "cli.run_potential",
                                 "cli.run_groundstate", "cli.run_verify", "cli.run_shapecheck",
                                 "cli.run_sweep")),
}


class Tracer:
    """In-memory span recorder plus a count of calls into each profile's U."""

    def __init__(self):
        self.enabled = False
        self.task = None
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}
        self.client = threading.get_ident()
        self._u_counts = {}
        self.samples = []  # speed-sampler (start, end) intervals on the client thread

    def _open(self, name, size) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else None
        if parent is None and tid != self.client:
            client = self._stacks.get(self.client)
            parent = client[-1] if client else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.task, tid, size, None])
        stack.append(idx)
        return idx

    def _close(self, idx, extra) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[EXTRA] = extra
        self._stacks[span[THREAD]].pop()

    def wrap(self, fn, name, size=None, after=None):
        """``fn`` recording a span while enabled; ``after(result)`` is stored."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name, size(args, kwargs) if size else None)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer._close(idx, after(out) if after and out is not None else None)

        return traced

    def count_u(self, profile) -> None:
        """Count calls into ``profile.u`` and the points they evaluate."""
        inner = profile.u
        counts = self._u_counts

        def u(x):
            if self.enabled:
                c = counts.setdefault(threading.get_ident(), [0, 0])
                c[0] += 1
                c[1] += _size(x)
            return inner(x)

        object.__setattr__(profile, "u", u)  # MassProfile is a frozen dataclass

    def u_totals(self) -> tuple:
        return (sum(c[0] for c in self._u_counts.values()),
                sum(c[1] for c in self._u_counts.values()))


def install(tracer: Tracer, package) -> None:
    """Wrap the package's public functions and class methods in place."""
    prefix = package.__name__
    mods = {m: importlib.import_module(f"{prefix}.{m}") for m in MODULES}
    wrapped = {}

    def after_for(name):
        if name == "massprofile.registry_get":
            return tracer.count_u
        if name == "verify.lowest_eigenvalues":
            return lambda res: float(max(res.residuals))
        return None

    def wrapper_for(fn):
        if fn not in wrapped:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            wrapped[fn] = tracer.wrap(fn, name, SIZES.get(name), after_for(name))
        return wrapped[fn]

    def ours(obj) -> bool:
        return isinstance(obj, types.FunctionType) and obj.__module__.startswith(prefix)

    for mod in (*mods.values(), package):
        for attr, obj in list(vars(mod).items()):
            if not attr.startswith("_") and ours(obj):
                setattr(mod, attr, wrapper_for(obj))
    runners = mods["cli"]._RUNNERS
    for key, fn in list(runners.items()):
        runners[key] = wrapper_for(fn)
    for modname, clsname in CLASSES:
        cls = getattr(mods[modname], clsname)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if ours(obj):
                setattr(cls, attr, wrapper_for(obj))
            elif isinstance(obj, classmethod) and ours(obj.__func__):
                setattr(cls, attr, classmethod(wrapper_for(obj.__func__)))


# --------------------------------------------------------------------------
# accounting


def attach_samples(spans, samples, thread) -> list:
    """``spans`` plus one SAMPLE span per sampler interval, whose parent is
    the innermost span of ``thread`` open around it."""
    events = sorted([(spans[i][START], 0, i) for i, s in enumerate(spans) if s[THREAD] == thread]
                    + [(lo, 1, k) for k, (lo, _) in enumerate(samples)])
    out, stack = list(spans), []
    for start, is_sample, i in events:
        while stack and spans[stack[-1]][END] <= start:
            stack.pop()
        if is_sample:
            lo, hi = samples[i]
            parent = stack[-1] if stack else None
            out.append([SAMPLE, lo, hi, parent, spans[parent][TASK] if stack else None,
                        thread, None, None])
        else:
            stack.append(i)
    return out


def self_times(spans) -> list:
    """Duration minus the union of child intervals, per span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][START], start), min(spans[c][END], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def by_name(spans, selfs) -> dict:
    """calls, total and self seconds per span name."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s, st in zip(spans, selfs):
        row = table[s[NAME]]
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += st
    return dict(sorted(table.items()))


def layer_metrics(spans, u_totals, requested_points: int, artifact_bytes: int,
                  workers: int) -> tuple:
    """Every per-layer metric from one traced pass, and the per-span-name table."""
    selfs = self_times(spans)
    names = by_name(spans, selfs)
    m = {}
    for prefix, (primary, helpers) in LAYERS.items():
        m[f"{prefix}.calls"] = sum(names.get(n, {}).get("calls", 0) for n in primary)
        m[f"{prefix}.self_s"] = sum(names.get(n, {}).get("self_s", 0.0) for n in primary + helpers)
        m[f"{prefix}.points"] = sum(s[SIZE] or 0 for s in spans if s[NAME] in primary)
    m["massprofile.u_calls"], m["massprofile.u_points"] = u_totals
    m["families.mu_per_point"] = (m["massprofile.mu_array.points"] / requested_points
                                  if requested_points else 0.0)
    m["verify.eigensolve.dim"] = m["verify.eigensolve.points"]
    m["verify.eig_residual_max"] = max(
        (s[EXTRA] for s in spans if s[NAME] == "verify.lowest_eigenvalues" and s[EXTRA] is not None),
        default=0.0)
    m["cli.artifact_bytes"] = artifact_bytes
    sweep_points, busy, capacity = 0, 0.0, 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "cli.run_sweep":
            continue
        kids = [c for c in spans if c[PARENT] == i and c[THREAD] != s[THREAD]]
        sweep_points += len(kids)
        busy += sum(c[END] - c[START] for c in kids)
        capacity += (s[END] - s[START]) * min(workers, max(len(kids), 1))
    m["cli.sweep.points"] = sweep_points
    m["cli.sweep.parallel_eff"] = busy / capacity if capacity else 0.0
    m["trace.spans"] = sum(s[NAME] != SAMPLE for s in spans)
    return m, names
