"""Spans and counters installed around qoper's layers from outside.

The tracer replaces functions in every qoper namespace that bound them
(``from .qq import solve_q_minus`` makes a second binding in ``backlund``,
so wrapping only the defining module would miss those calls) and restores
the originals on ``uninstall``.  A span counts every call; a call made
while a span of the same name is already open (recursion, as in
``RatMatrix.det``) is counted but adds no time, so ``total_s`` covers only
the outermost call.  ``self_s`` is ``total_s`` minus the time of the spans
opened inside it.  ``Poly`` and ``RatFun`` get constructor counters.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

NAMESPACES = ("qoper", "qoper.cli", "qoper.qq", "qoper.backlund",
              "qoper.wronskian", "qoper.polynomials", "qoper.cartan")

# span name -> (defining module, attribute); a dotted attribute is a method
SPANS = {
    "cli.main": ("qoper.cli", "main"),
    "cli.parse_instance": ("qoper.cli", "parse_instance"),
    "qq.solve_bethe": ("qoper.qq", "solve_bethe"),
    "qq.solve_q_minus": ("qoper.qq", "solve_q_minus"),
    "qq.qq_residual": ("qoper.qq", "qq_residual"),
    "qq.bethe_residual": ("qoper.qq", "bethe_residual"),
    "qq.nondegenerate": ("qoper.qq", "nondegenerate"),
    "qq.resonance_check": ("qoper.qq", "resonance_check"),
    "polynomials.solve_poly_q_difference": ("qoper.polynomials",
                                            "solve_poly_q_difference"),
    "polynomials.poly_roots": ("qoper.polynomials", "poly_roots"),
    "polynomials.q_distinct": ("qoper.polynomials", "q_distinct"),
    "backlund.full_qq_system": ("qoper.backlund", "full_qq_system"),
    "backlund.backlund_step": ("qoper.backlund", "backlund_step"),
    "wronskian.s_lambda_inverse": ("qoper.wronskian", "s_lambda_inverse"),
    "wronskian.check_shifted_minor_relation": ("qoper.wronskian",
                                               "check_shifted_minor_relation"),
    "wronskian.miura_trivializer": ("qoper.wronskian", "miura_trivializer"),
    "wronskian.build_miura_A": ("qoper.wronskian", "build_miura_A"),
    "wronskian.build_wronskian": ("qoper.wronskian", "build_wronskian"),
    "wronskian.check_wronskian_equations": ("qoper.wronskian",
                                            "check_wronskian_equations"),
    "wronskian.check_fundamental_relation": ("qoper.wronskian",
                                             "check_fundamental_relation"),
    "wronskian.miura_from_wronskian": ("qoper.wronskian", "miura_from_wronskian"),
    "wronskian.miura_plucker_blocks": ("qoper.wronskian", "miura_plucker_blocks"),
    "wronskian.RatMatrix.det": ("qoper.wronskian", "RatMatrix.det"),
    "wronskian.check_lewis_carroll": ("qoper.wronskian", "check_lewis_carroll"),
    "cartan.enumerate_weyl": ("qoper.cartan", "enumerate_weyl"),
}

MODULES = ("cli", "qq", "backlund", "wronskian", "polynomials", "cartan")

COUNTERS = ("polynomials.poly_new.exact", "polynomials.poly_new.float",
            "polynomials.ratfun_new", "qq.seeds_tried", "qq.solutions_found",
            "backlund.table_reached", "backlund.table_size",
            "backlund.refusals")

# |W| for the Weyl groups the workloads use
WEYL_ORDER = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("G", 2): 12}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self._open = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._installed = []

    def reset(self):
        for d in (self.calls, self.total, self.self_time, self.counters):
            d.clear()

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn, after=None):
        calls, total, self_time = self.calls, self.total, self.self_time
        is_open, stack = self._open, self._stack
        sig = inspect.signature(fn) if after else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if is_open[name]:
                return fn(*args, **kwargs)
            is_open[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                is_open[name] -= 1
                total[name] += dt
                self_time[name] += dt - child
                if stack:
                    stack[-1] += dt
            if after:
                after(sig.bind(*args, **kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # the hooks read arguments by name and position as qoper has them today
    def _after_solve_bethe(self, bound, result):
        bound.apply_defaults()
        self.counters["qq.seeds_tried"] += bound.arguments.get("seeds", 0)
        self.counters["qq.solutions_found"] += len(result)

    def _after_full_qq(self, bound, result):
        cartan = next(iter(bound.arguments.values())).cartan
        order = WEYL_ORDER.get((cartan.lie_type, cartan.rank))
        if order:
            self.counters["backlund.table_reached"] += len(result.table)
            self.counters["backlund.table_size"] += order
        self.counters["backlund.refusals"] += len(result.refusals)

    def _count_init(self, cls, count):
        init = cls.__init__

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            count(obj)

        wrapper.__wrapped__ = init
        self._replace(cls, "__init__", wrapper)

    def _count_poly(self, p):
        self.counters["polynomials.poly_new.exact" if p.exact
                      else "polynomials.poly_new.float"] += 1

    def _count_ratfun(self, _):
        self.counters["polynomials.ratfun_new"] += 1

    # -- installation --------------------------------------------------------
    def _replace(self, owner, attr, value):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(m) for m in NAMESPACES]
        after = {"qq.solve_bethe": self._after_solve_bethe,
                 "backlund.full_qq_system": self._after_full_qq}
        # a name the program no longer has is skipped and reports 0 calls
        for name, (modname, attr) in SPANS.items():
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
                if owner is not None and attr in owner.__dict__:
                    self._replace(owner, attr,
                                  self._span(name, owner.__dict__[attr]))
                continue
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            wrapper = self._span(name, original, after.get(name))
            for mod in mods:
                if mod.__dict__.get(attr) is original:
                    self._replace(mod, attr, wrapper)
        poly = importlib.import_module("qoper.polynomials")
        self._count_init(poly.Poly, self._count_poly)
        self._count_init(poly.RatFun, self._count_ratfun)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-layer values of everything recorded since the last reset."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(self.self_time[n] for n in SPANS
                                       if n.split(".")[0] == mod)
        for c in COUNTERS:
            out[c] = self.counters[c]
        return out
