"""Per-layer tracing installed from outside the program.

Each traced function is replaced, wherever it is looked up, by a wrapper
that records a span (name, parent, start, end) and exact work counts.
Spans stay in memory; `Tracer.summary` folds one execution into calls,
inclusive time and self time per function, where self time is the span's
duration minus the time covered by its child spans.

Patches are installed only around the traced executions and removed after,
so untraced executions run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "agmceliece"

# (metric prefix, module, attribute path inside the module)
TARGETS = [
    ("field.matmul", "field", "Field.matmul"),
    ("matrix.rref", "matrix", "rref"),
    ("matrix.kernel", "matrix", "kernel"),
    ("matrix.solve", "matrix", "solve"),
    ("matrix.contains", "matrix", "contains"),
    ("code.LinearCode", "code", "LinearCode.__init__"),
    ("code.dual", "code", "LinearCode.dual"),
    ("code.schur_square", "code", "LinearCode.schur_square"),
    ("code.schur_product", "code", "LinearCode.schur_product"),
    ("code.shorten", "code", "LinearCode.shorten"),
    ("curve.ag_code", "curve", "ag_code"),
    ("ecp.ecp_decode", "ecp", "ecp_decode"),
    ("mceliece.keygen", "mceliece", "keygen"),
    ("mceliece.encrypt", "mceliece", "encrypt"),
    ("mceliece.decrypt", "mceliece", "decrypt"),
    ("mceliece.legitimate_pair", "mceliece", "legitimate_pair"),
    ("attack.recover_params", "attack", "recover_params"),
    ("attack.filtration_step", "attack", "filtration_step"),
    ("attack.filtration_step_doubling", "attack", "filtration_step_doubling"),
    ("attack.repair_degenerate", "attack", "repair_degenerate"),
    ("attack.build_ecp", "attack", "build_ecp"),
    ("attack.attack_decrypt", "attack", "attack_decrypt"),
]

COUNTERS = [
    "field.matmul.mac",
    "matrix.rref.rows_in",
    "matrix.rref.rank_out",
    "code.schur_square.rows_built",
    "code.schur_product.rows_built",
]

SCHUR_SPANS = ("code.schur_square", "code.schur_product")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_matmul(counts, args, kwargs, out, parent):
    # field.matmul(self, A, B) promotes 1-D operands to rows
    inner = np.shape(_arg(args, kwargs, 1, "A"))[-1]
    counts["field.matmul.mac"] += int(out.shape[0]) * int(out.shape[1]) * int(inner)


def _count_rref(counts, args, kwargs, out, parent):
    counts["matrix.rref.rows_in"] += int(np.shape(_arg(args, kwargs, 1, "M"))[0])
    counts["matrix.rref.rank_out"] += int(out[1])


def _count_code(counts, args, kwargs, out, parent):
    # rows a Schur product materialises are the rows it hands to the
    # canonicalising constructor
    if parent in SCHUR_SPANS:
        rows = np.shape(_arg(args, kwargs, 3, "gen_rows"))
        counts[f"{parent}.rows_built"] += int(rows[0]) if len(rows) == 2 else 1


HOOKS = {
    "field.matmul": _count_matmul,
    "matrix.rref": _count_rref,
    "code.LinearCode": _count_code,
}


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self_s)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self.missing: list[str] = []
        self.executions: list[list[tuple]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                tracer.spans.append(
                    (span_id, parent[0] if parent else None, name, t0, t1, t1 - t0 - frame[2])
                )
            if hook is not None:
                hook(tracer.counts, args, kwargs, out, parent[1] if parent else None)
            return out

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run untraced code (e.g. correctness checks) while patches are in."""
        old, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = old

    # -- installation ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every target where it is looked up; restore on exit."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        undo = []
        try:
            for name, mod_name, attr in TARGETS:
                home = sys.modules.get(f"{PACKAGE}.{mod_name}")
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(home, owner) if owner else home
                orig = getattr(holder, leaf, None) if holder is not None else None
                if orig is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapped = self._wrap(name, orig)
                if owner:
                    # a method: the class attribute is the only lookup site
                    undo.append((holder, leaf, orig))
                    setattr(holder, leaf, wrapped)
                    continue
                # a module function: also imported by name into other modules
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    # -- reporting ---------------------------------------------------------------

    def begin(self):
        """Start a new traced execution: fresh spans and counts."""
        self.spans = []
        self.counts = defaultdict(int)
        self._next_id = 0
        self.executions.append(self.spans)

    def summary(self) -> dict[str, float]:
        """Per-layer numbers for the current execution."""
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        by_id = {s[0]: s for s in self.spans}
        for span_id, parent, name, t0, t1, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            # inclusive time counts only the outermost span of a recursive name
            while parent is not None and by_id[parent][2] != name:
                parent = by_id[parent][1]
            if parent is None:
                out[f"{name}.total_s"] += t1 - t0
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        rows = out["matrix.rref.rows_in"]
        out["matrix.rref.useful_ratio"] = out["matrix.rref.rank_out"] / rows if rows else 0.0
        out["attack.systems_solved"] = (
            out["attack.filtration_step.calls"] + out["attack.filtration_step_doubling.calls"]
        )
        return out

    def dump(self, path, meta: dict):
        """Write the spans of every traced execution as JSON."""
        payload = {
            **meta,
            "fields": ["id", "parent", "name", "start", "end", "self_s"],
            "executions": [[list(s) for s in spans] for spans in self.executions],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
