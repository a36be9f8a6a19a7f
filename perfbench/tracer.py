"""Outside-in tracer: wraps the package's public functions from the
benchmark's side, with no edits to the package.

Every public module-level function and every public method (plus the
arithmetic operators) of each class defined in a package module is
replaced by a timing wrapper while the tracer is installed.
`hopf`/`expansion` import rewrite functions by value and `cli` imports
the checks, so a function is patched in every module that holds it;
methods are patched on their defining class.

Each wrapper keeps a stack frame so that self time (own time minus the
full cost of wrapped callees, bookkeeping included) and outermost
inclusive time are exact per function and per module. Coarse boundaries
(see SPAN_NAMES) also record a span (name, start, end, parent span,
job id) in memory. Counting hooks run in the bookkeeping part of the
wrapper, so their cost lands in no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from collections import Counter

LAYERS = (
    "scalars", "params", "tensors", "ncpoly", "rewrite", "exprparse",
    "hopf", "expansion", "document", "cli",
)

# Arithmetic operators are wrapped besides the public methods; other
# dunders (__bool__, __eq__, __hash__, __str__, ...) are not.
OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
))

SPAN_NAMES = frozenset((
    "rewrite.presentation_jacobi_defect", "hopf.coproduct_hom_defect",
    "hopf.coassociativity_defect", "hopf.counit_defect", "hopf.solve_antipode",
    "hopf.class_f_check", "hopf.specialize", "tensors.antisymmetry_defect",
    "tensors.jacobi_defect", "tensors.cojacobi_defect", "tensors.cocycle_defect",
    "tensors.check_four_pairs", "tensors.build_family",
    "expansion.extract_coefficients", "expansion.verify_order2",
    "expansion.verify_order3_thz", "expansion.tangent_field",
    "expansion.compare_field", "rewrite.normalize_tensor",
    "hopf.HopfPresentation.coproduct_word", "exprparse.parse_expr",
    "document.Document.build_presentation",
))


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS
        }
        self.stats = {}                 # qualified name -> _Stat
        self.layer_stats = {layer: _Stat() for layer in LAYERS}
        self.counts = Counter()
        self.spans = []                 # (name, start, end, parent, job)
        self.job = None
        self._stack = []                # [child seconds, stat] per open call
        self._span_stack = []
        self._nf_seen = weakref.WeakKeyDictionary()
        self._nf_init_seen = {}
        self._cop_seen = weakref.WeakKeyDictionary()
        self._patches = self._plan()

    # -- wrapper plan ----------------------------------------------------------

    def _plan(self):
        """[(owner, attribute, original, replacement)] for every patch."""
        holders = [self.package] + list(self.modules.values())
        hooks = {
            "rewrite.normal_form_word": self._hook_nf,
            "rewrite.RelationTable.bracket_poly": self._hook_bracket,
            "hopf.HopfPresentation.coproduct_word": self._hook_cop,
            "params.ParamPoly.__mul__": self._hook_param_mul,
            "ncpoly.NCPoly.__mul__": self._hook_nc_mul,
            "ncpoly.TensorNCPoly.__mul__": self._hook_nc_mul,
        }
        patches = []
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    qual = f"{layer}.{name}"
                    wrapped = self._wrap(obj, qual, layer, hooks.get(qual))
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                patches.append((holder, attr, obj, wrapped))
            for cls in [c for c in vars(module).values() if inspect.isclass(c)]:
                if cls.__module__ != module.__name__:
                    continue
                for name, desc in list(vars(cls).items()):
                    if name.startswith("_") and name not in OPERATORS:
                        continue
                    qual = f"{layer}.{cls.__name__}.{name}"
                    if isinstance(desc, (classmethod, staticmethod)):
                        wrapped = type(desc)(self._wrap(desc.__func__, qual, layer, None))
                    elif inspect.isfunction(desc) and not inspect.isgeneratorfunction(desc):
                        wrapped = self._wrap(desc, qual, layer, hooks.get(qual))
                    else:
                        continue
                    patches.append((cls, name, desc, wrapped))
        table = self.modules["rewrite"].RelationTable
        patches.append((table, "__init__", vars(table)["__init__"],
                        self._wrap_table_init(vars(table)["__init__"])))
        return patches

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def begin_job(self, job_id):
        self.job = job_id
        self._span_stack.append(len(self.spans))
        self.spans.append(("job", time.perf_counter(), None, None, job_id))

    def end_job(self):
        sid = self._span_stack.pop()
        name, start, _, parent, job = self.spans[sid]
        self.spans[sid] = (name, start, time.perf_counter(), parent, job)
        self.job = None

    def write_spans(self, path):
        """One JSON line per span: name, start, end, parent index, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, fn, qual, layer, hook):
        stat = self.stats.setdefault(qual, _Stat())
        lstat = self.layer_stats[layer]
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        is_span = qual in SPAN_NAMES
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            if hook is not None:
                hook(args, kwargs)
            frame = [0.0, stat]
            stack.append(frame)
            stat.depth += 1
            lstat.depth += 1
            if is_span:
                sid = len(spans)
                spans.append(None)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(sid)
            t1 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                dur = t2 - t1
                stat.calls += 1
                own = dur - frame[0]
                stat.self_s += own
                lstat.self_s += own
                lstat.calls += 1
                stat.depth -= 1
                if not stat.depth:
                    stat.incl_s += dur
                lstat.depth -= 1
                if not lstat.depth:
                    lstat.incl_s += dur
                if is_span:
                    span_stack.pop()
                    spans[sid] = (qual, t1, t2, parent, tracer.job)
                if stack:
                    stack[-1][0] += clock() - t0

        return functools.update_wrapper(wrapper, fn)

    def _wrap_table_init(self, init):
        """RelationTable.__init__ fills and then clears its normal-form
        cache; calls made during construction are keyed separately."""
        inner = self._wrap(init, "rewrite.RelationTable.__init__", "rewrite", None)
        seen = self._nf_init_seen

        def wrapper(table, *args, **kwargs):
            seen[id(table)] = set()
            try:
                return inner(table, *args, **kwargs)
            finally:
                del seen[id(table)]

        return wrapper

    # -- counting hooks ------------------------------------------------------------

    def _hook_nf(self, args, kwargs):
        table, word = args[0], args[1]
        choose = args[2] if len(args) > 2 else kwargs.get("choose")
        self.counts["nf_calls"] += 1
        if choose is not None:
            return
        phase, seen = "nf_init", self._nf_init_seen.get(id(table))
        if seen is None:
            phase, seen = "nf", self._nf_seen.setdefault(table, set())
        key = tuple(word)
        self.counts[phase + "_lookups"] += 1
        if key in seen:
            self.counts[phase + "_hits"] += 1
        else:
            seen.add(key)

    def _hook_bracket(self, args, kwargs):
        # a rewrite step is a bracket lookup made directly by the
        # innermost open normal_form_word call
        if self._stack and self._stack[-1][1] is self.stats["rewrite.normal_form_word"]:
            self.counts["rewrite_steps"] += 1

    def _hook_cop(self, args, kwargs):
        H, word = args[0], args[1]
        seen = self._cop_seen.setdefault(H, set())
        self.counts["cop_calls"] += 1
        if word in seen:
            self.counts["cop_hits"] += 1
        else:
            seen.add(word)

    def _hook_param_mul(self, args, kwargs):
        a, b = args
        self.counts["param_mul_calls"] += 1
        if not isinstance(b, self.modules["params"].ParamPoly):
            return
        self.counts["param_mul_poly"] += 1
        if not a.terms or not b.terms:
            self.counts["param_mul_empty"] += 1
            return
        self.counts["param_mul_pairs"] += len(a.terms) * len(b.terms)
        da = Counter(sum(e) for e in a.terms)
        db = Counter(sum(e) for e in b.terms)
        order = a.order
        self.counts["param_mul_kept"] += sum(
            ca * cb for x, ca in da.items() for y, cb in db.items() if x + y <= order
        )

    def _hook_nc_mul(self, args, kwargs):
        a, b = args
        self.counts["nc_mul_calls"] += 1
        self.counts["nc_mul_word_pairs"] += len(a.terms) * len(getattr(b, "terms", ()))

    # -- per-layer metrics -----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer numbers per traced pass: (value, unit) by name."""
        c = self.counts

        def stat(qual):
            return self.stats[qual]

        def ratio(num, den):
            return num / den if den else 0.0

        def per(x):
            return x / passes

        layer = self.layer_stats
        out = {
            "scalars.calls": (per(layer["scalars"].calls), "count"),
            "scalars.self_s": (per(layer["scalars"].self_s), "s"),
            "params.mul_calls": (per(c["param_mul_calls"]), "count"),
            "params.add_calls": (per(stat("params.ParamPoly.__add__").calls), "count"),
            "params.mul_term_pairs": (per(c["param_mul_pairs"]), "count"),
            "params.mul_kept_ratio": (ratio(c["param_mul_kept"], c["param_mul_pairs"]), "ratio"),
            "params.mul_empty_ratio": (ratio(c["param_mul_empty"], c["param_mul_poly"]), "ratio"),
            "params.self_s": (per(layer["params"].self_s), "s"),
            "ncpoly.mul_calls": (per(c["nc_mul_calls"]), "count"),
            "ncpoly.mul_word_pairs": (per(c["nc_mul_word_pairs"]), "count"),
            "ncpoly.self_s": (per(layer["ncpoly"].self_s), "s"),
            "ncpoly.series_s": (per(stat("ncpoly.series_apply").incl_s), "s"),
            "rewrite.nf_calls": (per(c["nf_calls"]), "count"),
            "rewrite.nf_hit_ratio": (ratio(c["nf_hits"], c["nf_lookups"]), "ratio"),
            "rewrite.nf_init_hit_ratio": (
                ratio(c["nf_init_hits"], c["nf_init_lookups"]), "ratio"),
            "rewrite.steps": (per(c["rewrite_steps"]), "count"),
            "rewrite.self_s": (per(layer["rewrite"].self_s), "s"),
            "rewrite.normalize_tensor_s": (per(stat("rewrite.normalize_tensor").incl_s), "s"),
            "rewrite.jacobi_s": (per(stat("rewrite.presentation_jacobi_defect").incl_s), "s"),
            "hopf.cop_calls": (per(c["cop_calls"]), "count"),
            "hopf.cop_hit_ratio": (ratio(c["cop_hits"], c["cop_calls"]), "ratio"),
            "hopf.hom_s": (per(stat("hopf.coproduct_hom_defect").incl_s), "s"),
            "hopf.coassoc_s": (per(stat("hopf.coassociativity_defect").incl_s), "s"),
            "hopf.counit_s": (per(stat("hopf.counit_defect").incl_s), "s"),
            "hopf.antipode_s": (per(stat("hopf.solve_antipode").incl_s), "s"),
            "hopf.class_f_s": (per(stat("hopf.class_f_check").incl_s), "s"),
            "hopf.specialize_s": (per(stat("hopf.specialize").incl_s), "s"),
            "tensors.s": (per(layer["tensors"].incl_s), "s"),
            "expansion.s": (per(layer["expansion"].incl_s), "s"),
            "exprparse.calls": (per(stat("exprparse.parse_expr").calls), "count"),
            "exprparse.s": (per(layer["exprparse"].incl_s), "s"),
            "document.build_s": (per(
                stat("document.Document.build_presentation").incl_s
                + stat("document.Document.composition_tensor").incl_s), "s"),
            "cli.self_s": (per(layer["cli"].self_s), "s"),
        }
        return out
