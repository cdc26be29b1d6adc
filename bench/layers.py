"""Layer spans for the benchmark, recorded from outside the library.

A traced run replaces functions and methods of the ``ainfty`` modules with
wrappers that record one span per call: name, start, end, parent span and,
for some spans, the size of the work (centers enumerated, points
evaluated).  Spans stay in memory and are written out once, at the end of a
run.  An untraced run installs nothing.

Span names are ``<layer>.<call>``, where the layer is the ``ainfty`` module
that defines the call; a layer's self time is the self time of its spans.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, attribute, size of the work or None).  A
# function is replaced in every ``ainfty`` module that imported it.
FUNCTIONS = [
    ("config.zeta", "ainfty.config", "hurwitz_zeta", None),
    ("potential.phi", "ainfty.potential", "phi", None),
    ("potential.flow_log_g", "ainfty.potential", "flow_log_g", None),
    ("potential.flow_log_g_sum", "ainfty.potential", "flow_log_g_sum", None),
    ("potential.grow", "ainfty.potential", "_grow", None),
    ("potential.phi_batch", "ainfty.potential", "_phi_batch",
     lambda args, kwargs: int(args[1].size)),
    ("potential.boundary_tables", "ainfty.potential", "_boundary_tables", None),
    ("potential.growth_exponent", "ainfty.potential", "growth_exponent", None),
    ("quotient.class_of", "ainfty.quotient", "class_of", None),
    ("quotient.same_class", "ainfty.quotient", "same_class", None),
    ("quotient.section_divisor", "ainfty.quotient", "section_divisor", None),
    ("charts.chart_forward", "ainfty.charts", "chart_forward", None),
    ("charts.chart_inverse", "ainfty.charts", "chart_inverse", None),
    ("charts.act", "ainfty.charts", "act", None),
    ("isomorphism.apply", "ainfty.isomorphism", "apply_isomorphism", None),
    ("isomorphism.build", "ainfty.isomorphism", "build_isomorphism", None),
    ("cli.main", "ainfty.cli", "main", None),
]

# (span name, module, base class, method, size).  The method is replaced on
# the base class and on every subclass in that module that defines its own.
METHODS = [
    ("config.center_arrays", "ainfty.config", "CenterFamily", "center_arrays",
     lambda args, kwargs: int(args[1])),
    ("config.phi_tail", "ainfty.config", "CenterFamily", "phi_tail", None),
    ("config.phi_tail_batch", "ainfty.config", "CenterFamily", "phi_tail_batch", None),
    ("config.log_tail", "ainfty.config", "CenterFamily", "log_tail", None),
    ("config.flow_tail", "ainfty.config", "CenterFamily", "flow_tail", None),
    ("charts.profile_value", "ainfty.charts", "_LogProfile", "value", None),
    ("charts.profile_deriv", "ainfty.charts", "_LogProfile", "deriv", None),
    ("charts.profile_setup", "ainfty.charts", "_LogProfile", "_setup", None),
]

TAIL_SPANS = frozenset({"config.phi_tail", "config.phi_tail_batch",
                        "config.log_tail", "config.flow_tail"})
LAYERS = ("config", "potential", "quotient", "charts", "isomorphism", "verification")
CLI_SUBCOMMANDS = ("validate", "phi", "flow", "classify-point", "k-divisor", "chart",
                   "invert", "transition", "isom", "map-point", "verify")
CLI_SUITES = ("core", "quotient", "isomorphism")


class Recorder:
    """Spans of one process, as parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []      # span id of the caller's span, -1 at top level
        self.size = []        # work size, 0 where the span has none
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []    # (owner, attribute or dict key, original)

    def __len__(self):
        return len(self.names)

    def wrap(self, name, fn, size=None):
        names, start, end, parent, sizes, stack = (
            self.names, self.start, self.end, self.parent, self.size, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            sizes.append(size(args, kwargs) if size else 0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
        return wrapper

    def _counting_quad(self, quad):
        counts = self.counts

        def counted_quad(func, *args, **kwargs):
            def integrand(*x):
                counts["potential.quad_evals"] += 1
                return func(*x)
            return quad(integrand, *args, **kwargs)
        return self.wrap("potential.quad", counted_quad)

    def _replace(self, owner, key, new):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def install(self):
        """Wrap every traced call of the loaded ``ainfty`` modules."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "ainfty" or n.startswith("ainfty."))]
        targets = [(name, getattr(sys.modules[mod], attr), size)
                   for name, mod, attr, size in FUNCTIONS if mod in sys.modules]
        if "ainfty.potential" in sys.modules:
            quad = sys.modules["ainfty.potential"].quad
            targets.append(("potential.quad", quad, None))
        verification = sys.modules.get("ainfty.verification")
        if verification is not None:
            for suite in verification.SUITES:
                targets.append((f"verification.{suite}", verification.SUITES[suite], None))
        for name, orig, size in targets:
            new = (self._counting_quad(orig) if name == "potential.quad"
                   else self.wrap(name, orig, size))
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, attr, new)
            if verification is not None:
                for suite, value in list(verification.SUITES.items()):
                    if value is orig:
                        self._replace(verification.SUITES, suite, new)
        for name, mod, base, method, size in METHODS:
            if mod not in sys.modules:
                continue
            module = sys.modules[mod]
            root = getattr(module, base)
            for cls in vars(module).values():
                if isinstance(cls, type) and issubclass(cls, root) and method in vars(cls):
                    self._replace(cls, method, self.wrap(name, vars(cls)[method], size))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def to_dict(self) -> dict:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {"names": table,
                "spans": [[index[n], s, e, p, z] for n, s, e, p, z in
                          zip(self.names, self.start, self.end, self.parent, self.size)],
                "counts": dict(self.counts)}

    def merge(self, data: dict):
        """Append the spans of another process (as written by ``to_dict``)."""
        offset = len(self.names)
        for i, s, e, p, z in data["spans"]:
            self.names.append(data["names"][i])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + offset if p >= 0 else -1)
            self.size.append(z)
        for k, v in data["counts"].items():
            self.counts[k] += v

    def write(self, path, extra: dict):
        """Write the spans, with ``extra`` fields, as gzipped JSON."""
        data = self.to_dict()
        data.update(extra)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(rec: Recorder) -> list:
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(rec.parent):
        if p >= 0:
            children[p].append((rec.start[i], rec.end[i]))
    return [rec.end[i] - rec.start[i]
            - _covered(children.get(i, ()), rec.start[i], rec.end[i])
            for i in range(len(rec))]


def _outermost(rec: Recorder, group) -> list:
    """Ids of spans in ``group`` with no ancestor in ``group``."""
    inside = [False] * len(rec)     # the span or an ancestor is in the group
    out = []
    for i, (name, p) in enumerate(zip(rec.names, rec.parent)):
        # parents precede children, so inside[p] is final here
        covered = p >= 0 and inside[p]
        inside[i] = covered or name in group
        if name in group and not covered:
            out.append(i)
    return out


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer counts and busy times of the spans, keyed by metric
    name.  Layers a run did not call report zero."""
    names = rec.names
    by_name = defaultdict(list)
    for i, n in enumerate(names):
        by_name[n].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(group):
        return sum(rec.end[i] - rec.start[i] for i in _outermost(rec, frozenset(group)))

    selfs = self_times(rec)
    layer_self = defaultdict(float)
    for n, s in zip(names, selfs):
        layer_self[n.split(".", 1)[0]] += s

    point_terms = 0
    for i in by_name["config.center_arrays"]:
        p = rec.parent[i]
        if p >= 0 and names[p] == "potential.phi_batch":
            point_terms += rec.size[p] * rec.size[i]
    strata = sum(rec.end[i] - rec.start[i] for i in by_name["potential.phi_batch"]
                 if rec.parent[i] >= 0 and names[rec.parent[i]] == "potential.growth_exponent")

    m = {
        "config.zeta_calls": calls("config.zeta"),
        "config.center_terms": sum(rec.size[i] for i in
                                   _outermost(rec, frozenset({"config.center_arrays"}))),
        "config.tail_s": busy(TAIL_SPANS),
        "potential.phi.calls": calls("potential.phi"),
        "potential.phi.s": busy({"potential.phi"}),
        "potential.flow_log_g_sum.calls": calls("potential.flow_log_g_sum"),
        "potential.flow_log_g_sum.s": busy({"potential.flow_log_g_sum"}),
        "potential.flow_log_g.calls": calls("potential.flow_log_g"),
        "potential.flow_log_g.s": busy({"potential.flow_log_g"}),
        "potential.quad_evals": rec.counts["potential.quad_evals"],
        "potential.truncation_doublings": calls("potential.grow"),
        "potential.phi_batch.point_terms": point_terms,
        "potential.boundary_tables.s": busy({"potential.boundary_tables"}),
        "potential.strata.s": strata,
        "quotient.class_of.calls": calls("quotient.class_of"),
        "quotient.class_of.s": busy({"quotient.class_of"}),
        "quotient.section_divisor.s": busy({"quotient.section_divisor"}),
        "charts.chart_forward.s": busy({"charts.chart_forward"}),
        "charts.chart_inverse.s": busy({"charts.chart_inverse"}),
        "charts.act.s": busy({"charts.act"}),
        "charts.profile_evals": calls("charts.profile_value") + calls("charts.profile_deriv"),
        "charts.profile_builds": calls("charts.profile_setup"),
        "isomorphism.apply.s": busy({"isomorphism.apply"}),
        "isomorphism.build.s": busy({"isomorphism.build"}),
    }
    for suite in CLI_SUITES:
        m[f"verification.{suite}.s"] = busy({f"verification.{suite}"})
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
