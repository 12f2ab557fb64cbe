"""In-memory span tracer that wraps the public entry points of `consfree`.

Each traced function is replaced at every module binding that holds it
(``cli`` imports ``eval_all`` and ``parse_program`` by name, ``parser``
imports ``type_check`` by name), so callers reach the wrapper whichever
name they use.  ``print_term`` is wrapped only where ``cli`` binds it:
``saturate.av_key`` prints terms on its hot path and is left alone, as are
``geq`` and hashing.  ``uninstall`` restores every original binding, so one
process can alternate traced and untraced passes over the same inputs.

A span is ``[name, start, end, parent index, op id, child time]``; the
self time of a span is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# span name -> per-layer metric the span's self time is charged to
LAYER_OF = {
    "parse_program": "parser.parse_s",
    "parse_data_term": "parser.parse_s",
    "print_term": "parser.print_s",
    "type_check": "lang.type_check_s",
    "is_cons_free": "analysis.cons_free_s",
    "classify": "analysis.cons_free_s",
    "compile_tm": "turing.compile_s",
    "simulate_tm": "turing.simulate_s",
    "gen_lincount": "counting.gen_s",
    "gen_polycount": "counting.gen_s",
    "gen_bincount": "counting.gen_s",
    "gen_nondetcount": "counting.gen_s",
    "chain_length_saturate": "counting.walk_self_s",
    "SaturationEngine.__init__": "saturate.init_s",
    "build_base": "saturate.build_base_s",
    "SaturationEngine.call": "saturate.fixpoint_s",
    "SaturationEngine.eval_call": "saturate.fixpoint_s",
    "SaturationEngine.call_data": "saturate.fixpoint_s",
    "eval_all": "interp.eval_s",
    "cli.main": "cli.self_s",
    "bench.op": "bench.glue_s",
    "bench.setup": "bench.glue_s",
    "bench.check": "bench.check_s",
}

# (defining module, function name): wrapped at every consfree binding
FUNCTIONS = [
    ("consfree.parser", "parse_program"),
    ("consfree.parser", "parse_data_term"),
    ("consfree.lang", "type_check"),
    ("consfree.analysis", "is_cons_free"),
    ("consfree.analysis", "classify"),
    ("consfree.turing", "compile_tm"),
    ("consfree.turing", "simulate_tm"),
    ("consfree.counting", "gen_lincount"),
    ("consfree.counting", "gen_polycount"),
    ("consfree.counting", "gen_bincount"),
    ("consfree.counting", "gen_nondetcount"),
    ("consfree.counting", "chain_length_saturate"),
    ("consfree.saturate", "build_base"),
    ("consfree.interp", "eval_all"),
]
# (module, name): wrapped at that binding only
BINDINGS = [
    ("consfree.cli", "main"),
    ("consfree.cli", "print_term"),
]
METHODS = ["__init__", "call", "eval_call", "call_data"]
MODULES = ["consfree", "consfree.lang", "consfree.parser", "consfree.analysis",
           "consfree.interp", "consfree.saturate", "consfree.counting",
           "consfree.turing", "consfree.cli"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.engines = []      # SaturationEngine instances built while traced
        self.evals = []        # (steps_used, complete) per eval_all call
        self.walks = []        # chain length per chain_length_saturate call
        self.exit_codes = []   # return value per cli.main call
        self.missing = []      # targets not found in this version of consfree
        self._patches = []

    def reset_counts(self):
        """Forget the per-call records, keeping the spans."""
        self.engines, self.evals, self.walks, self.exit_codes = [], [], [], []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), None, parent, self.op, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextmanager
    def span(self, name, op=None):
        if op is not None:
            self.op = op
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if on_return is not None:
                on_return(args, out)
            return out
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        self.missing = []
        mods = [importlib.import_module(m) for m in MODULES]
        hooks = {
            "eval_all": lambda a, r: self.evals.append((r.steps_used, r.complete)),
            "chain_length_saturate": lambda a, r: self.walks.append(r),
            "main": lambda a, r: self.exit_codes.append(r),
        }
        for modname, name in FUNCTIONS:
            fn = getattr(importlib.import_module(modname), name, None)
            if fn is None:
                self.missing.append("%s.%s" % (modname, name))
                continue
            wrapped = self.wrap(fn, name, hooks.get(name))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, attr, wrapped)
        for modname, name in BINDINGS:
            m = importlib.import_module(modname)
            fn = getattr(m, name, None)
            if fn is None:
                self.missing.append("%s.%s" % (modname, name))
                continue
            span = "cli.main" if name == "main" else name
            self._patch(m, name, self.wrap(fn, span, hooks.get(name)))
        cls = importlib.import_module("consfree.saturate").SaturationEngine
        for meth in METHODS:
            fn = cls.__dict__.get(meth)
            if fn is None:
                self.missing.append("SaturationEngine.%s" % meth)
                continue
            hook = (lambda a, r: self.engines.append(a[0])) if meth == "__init__" else None
            self._patch(cls, meth, self.wrap(fn, "SaturationEngine." + meth, hook))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries ---------------------------------------------------------

    def layer_self_times(self, keep):
        """Self time per layer metric over the spans whose op id satisfies
        `keep`."""
        out = {}
        for name, t0, t1, _, op, child in self.spans:
            if not keep(op):
                continue
            key = LAYER_OF[name]
            out[key] = out.get(key, 0.0) + (t1 - t0) - child
        return out

    def dump(self):
        return [{"name": n, "start": t0, "end": t1, "parent": p, "op": op}
                for n, t0, t1, p, op, _ in self.spans]
