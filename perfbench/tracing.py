"""Spans around calls into dwlab's layers, recorded from outside the program.

``Tracer.install`` replaces each traced function with a wrapper wherever a
dwlab module or class binds it, and ``Tracer.uninstall`` puts every original
back.  A wrapper records one span per call: layer-qualified name, start,
end, parent span and, for some calls, a few counts read off the result.
Spans live in flat arrays until the run ends; ``layer_metrics`` reduces
them to the per-layer metrics and ``write`` saves them as gzipped JSON
lines.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from array import array


def _newton_extra(result, args, kwargs):
    # continue_branch passes its arclength row by keyword
    return {"corrector": kwargs.get("extra_row") is not None}


#: (span name, module, attribute path, extra counts read off a call)
TARGETS = (
    ("cli.main", "dwlab.cli", "main", None),
    ("continuation.continue_branch", "dwlab.continuation", "continue_branch",
     lambda res, a, k: {"points": len(res.points)}),
    ("continuation.newton_solve", "dwlab.continuation", "newton_solve",
     _newton_extra),
    ("continuation.jacobian", "dwlab.continuation",
     "HeteroclinicBVP.jacobian", None),
    ("continuation.residual", "dwlab.continuation",
     "HeteroclinicBVP.residual", None),
    ("continuation.splu", "dwlab.continuation", "splu",
     lambda res, a, k: {"nnz": int(res.L.nnz + res.U.nnz)}),
    ("continuation.lsmr", "dwlab.continuation", "lsmr", None),
    ("freezing.freeze_step", "dwlab.freezing", "freeze_step", None),
    ("freezing.pde_rhs", "dwlab.freezing", "pde_rhs", None),
    ("shooting.shoot_to_pi_chart", "dwlab.shooting", "shoot_to_pi_chart",
     None),
    ("shooting.solve_ivp", "dwlab.shooting", "solve_ivp",
     lambda res, a, k: {"steps": len(res.t) - 1, "nfev": int(res.nfev)}),
    ("classify.stability_verdict", "dwlab.classify", "stability_verdict",
     None),
    ("classify.classify_regime", "dwlab.classify", "classify_regime", None),
    ("melnikov.splitting_matrix", "dwlab.melnikov", "splitting_matrix",
     None),
    ("runio.write_csv", "dwlab.runio", "write_csv",
     lambda res, a, k: {"bytes": len(res)}),
    ("runio.write_json", "dwlab.runio", "write_json",
     lambda res, a, k: {"bytes": len(res)}),
)

#: marks a wrapper so a scan can tell it from an original
WRAPPER_FLAG = "_perfbench_span"


def dwlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dwlab"
                                  or name.startswith("dwlab."))]


def wrappers_left():
    """(owner, attribute) pairs in dwlab's modules and classes that still
    hold a tracing wrapper."""
    left = []
    for mod in dwlab_modules():
        for attr, val in list(vars(mod).items()):
            if hasattr(val, WRAPPER_FLAG):
                left.append((mod.__name__, attr))
            if isinstance(val, type):
                for cattr, cval in list(vars(val).items()):
                    if hasattr(cval, WRAPPER_FLAG):
                        left.append((f"{mod.__name__}.{attr}", cattr))
    return left


class Tracer:
    """Records spans of the calls named in ``TARGETS`` while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.parent = array("q")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.extra = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []
        self._groups, self._grouped = {}, 0

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_idx):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span belongs to the main thread's
            # innermost open span, which is waiting for it
            main = self._main_stack
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.name)
            self.parent.append(parent)
            self.name.append(name_idx)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx, end, extra):
        self.end[idx] = end
        self._stack().pop()
        if extra:
            self.extra[idx] = extra

    def _wrap(self, name_idx, fn, extra_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, time.perf_counter(),
                              {"error": type(exc).__name__})
                raise
            # counts are read off the result after the span has ended
            end = time.perf_counter()
            tracer._close(idx, end, extra_fn(result, args, kwargs)
                          if extra_fn else None)
            return result

        setattr(wrapper, WRAPPER_FLAG, self.names[name_idx])
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every target wherever dwlab binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for i, (_, module, path, extra_fn) in enumerate(TARGETS):
                mod = sys.modules[module]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(mod, cls_name)
                    self._patch(owner, attr,
                                self._wrap(i, vars(owner)[attr], extra_fn))
                    continue
                original = getattr(mod, path)
                wrapper = self._wrap(i, original, extra_fn)
                for m in dwlab_modules():
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            self._patch(m, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def spans(self, name):
        """Indices of the spans recorded under ``name``."""
        if self._grouped != len(self.name):
            self._groups = {}
            for i, k in enumerate(self.name):
                self._groups.setdefault(k, []).append(i)
            self._grouped = len(self.name)
        return self._groups.get(self.names.index(name), [])

    def total(self, name):
        return sum(self.end[i] - self.start[i] for i in self.spans(name))

    def self_time(self, name):
        """Summed duration of the ``name`` spans not covered by any of their
        direct children (children in pool threads may overlap)."""
        children = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        total = 0.0
        for i in self.spans(name):
            covered, reach = 0.0, self.start[i]
            for c in sorted(children.get(i, ()), key=lambda c: self.start[c]):
                lo, hi = max(self.start[c], reach), self.end[c]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += self.end[i] - self.start[i] - covered
        return total

    def write(self, path, header):
        """Header line, then one JSON line per span:
        [id, parent, name, start, end, extra]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "fields": ["id", "parent", "name", "start",
                                            "end", "extra"]}) + "\n")
            for i in range(len(self.name)):
                fh.write(json.dumps([i, self.parent[i], self.name[i],
                                     round(self.start[i], 7),
                                     round(self.end[i], 7),
                                     self.extra.get(i)]) + "\n")


def layer_metrics(tr: Tracer, rounds: int, import_s: float):
    """Per-layer metrics, per round of the workload: {name: (value, unit)}."""

    def n(name):
        return len(tr.spans(name)) / rounds

    def t(name):
        return tr.total(name) / rounds

    def extras(name, key):
        return [tr.extra.get(i, {}).get(key, 0) for i in tr.spans(name)]

    fills = extras("continuation.splu", "nnz")
    newton = tr.spans("continuation.newton_solve")
    correctors = [i for i in newton if tr.extra.get(i, {}).get("corrector")]
    failures = [i for i in correctors if "error" in tr.extra.get(i, {})]
    steps = len(tr.spans("freezing.freeze_step"))
    files = n("runio.write_csv") + n("runio.write_json")
    return {
        "continuation.lu_factorizations": (n("continuation.splu"), "count"),
        "continuation.lu_s": (t("continuation.splu"), "s"),
        "continuation.lu_fill_nnz": (sum(fills) / len(fills) if fills
                                     else 0.0, "count"),
        "continuation.newton_iters": (n("continuation.jacobian"), "count"),
        "continuation.newton_s": (t("continuation.newton_solve"), "s"),
        "continuation.jacobian_s": (t("continuation.jacobian"), "s"),
        "continuation.residual_evals": (n("continuation.residual"), "count"),
        "continuation.lsmr_fallbacks": (n("continuation.lsmr"), "count"),
        "continuation.branch_points": (
            sum(extras("continuation.continue_branch", "points")) / rounds,
            "count"),
        "continuation.corrector_failures": (len(failures) / rounds, "count"),
        "continuation.corrector_accept_ratio": (
            1.0 - len(failures) / len(correctors) if correctors else 0.0,
            "ratio"),
        "freezing.steps": (steps / rounds, "count"),
        "freezing.step_s": (t("freezing.freeze_step"), "s"),
        "freezing.step_us": (tr.total("freezing.freeze_step") / steps * 1e6
                             if steps else 0.0, "us"),
        "freezing.pde_rhs_s": (t("freezing.pde_rhs"), "s"),
        "shooting.shots": (n("shooting.shoot_to_pi_chart"), "count"),
        "shooting.shoot_s": (t("shooting.shoot_to_pi_chart"), "s"),
        "shooting.ivp_steps": (sum(extras("shooting.solve_ivp", "steps"))
                               / rounds, "count"),
        "shooting.rhs_evals": (sum(extras("shooting.solve_ivp", "nfev"))
                               / rounds, "count"),
        "classify.verdicts": (n("classify.stability_verdict"), "count"),
        "classify.verdict_s": (t("classify.stability_verdict"), "s"),
        "classify.regimes": (n("classify.classify_regime"), "count"),
        "classify.regime_s": (t("classify.classify_regime"), "s"),
        "melnikov.splittings": (n("melnikov.splitting_matrix"), "count"),
        "melnikov.splitting_s": (t("melnikov.splitting_matrix"), "s"),
        "runio.files_written": (files, "count"),
        "runio.bytes_written": (
            (sum(extras("runio.write_csv", "bytes"))
             + sum(extras("runio.write_json", "bytes"))) / rounds, "B"),
        "runio.write_s": (t("runio.write_csv") + t("runio.write_json"), "s"),
        "cli.commands": (n("cli.main"), "count"),
        "cli.self_s": (tr.self_time("cli.main") / rounds, "s"),
        "cli.import_s": (import_s, "s"),
    }
