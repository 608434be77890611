"""Spans at the boundaries where one qsphere module calls into another.

The tracer replaces, for the length of a traced pass, the names that
``qsphere.cli``, ``qsphere.verify`` and ``qsphere.rep`` import from other
modules, so a call crosses a wrapper only where it crosses a module.
Calls inside one module are never wrapped.  ``LaurentPoly`` and
``RadicalSum`` operators are not spanned either: they run millions of times
per run and a wrapper would swamp them, so their time stays in the self
time of whichever span calls them.

A span is [name, start, end, parent index, operation id, tag].  Spans are
kept in memory and written out when the run ends.

The checks inside ``verify.run_suite`` are calls within one module, so
they are not wrapped.  Each ``run_suite`` span is instead attributed to the
check its suite runs; the ``relations`` suite runs ``check_symbolic_relations``
and then ``check_relations_in_rep``, and is split at its first
``rep.apply_element`` child.  ``check_kernel_structure`` does nothing but
call ``joint_kernel_dims`` and compare n integers, so
``verify.joint_kernel_dims_s`` is read from the kernel suite's spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (importing module, imported name, span name)
BOUNDARIES = (
    ("cli", "parse", "expr.parse"),
    ("cli", "print_canonical", "expr.print_canonical"),
    ("cli", "normalize", "algebra.normalize"),
    ("cli", "presentation_S", "algebra.presentation"),
    ("cli", "presentation_Sigma", "algebra.presentation"),
    ("cli", "matrix", "rep.matrix"),
    ("cli", "matrix_json", "rep.matrix_json"),
    ("cli", "run_suite", "verify.run_suite"),
    ("verify", "normalize", "algebra.normalize"),
    ("verify", "presentation_Sigma", "algebra.presentation"),
    ("verify", "matrix", "rep.matrix"),
    ("verify", "apply_element", "rep.apply_element"),
    ("verify", "qpochhammer", "scalar.qpochhammer"),
    ("rep", "radical_canonicalize", "scalar.radical_canonicalize"),
)

SUITE_CHECKS = {"lemma-aux": "lemma_aux", "lemma-main": "lemma_main",
                "kernel": "kernel_structure", "basis": "lowest_weight_basis"}
CHECKS = ("symbolic_relations", "lemma_aux", "relations_in_rep", "lemma_main",
          "kernel_structure", "lowest_weight_basis")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: object = "setup"
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def call(self, name, fn, *args, tag=None, **kwargs):
        """Run fn inside a span named name."""
        rec = [name, 0.0, 0.0, self._stack[-1], self.op, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, algebra):
        if name == "algebra.normalize":
            steps_fn = algebra.normalize_steps

            def normalize(e, p, fuel=None):
                nf, steps = self.call(name, steps_fn, e, p, fuel)
                self.counts["algebra.rewrite_steps"] += steps
                self.counts["algebra.nf_terms"] += len(nf.words())
                return nf
            return normalize
        if name == "rep.matrix":
            def matrix(e, c):
                m = self.call(name, fn, e, c)
                self.counts["rep.matrix_entries"] += len(m.entries)
                return m
            return matrix
        if name == "rep.apply_element":
            return lambda e, v, c: self.call(name, fn, e, v, c, tag=c.mode)
        if name == "verify.run_suite":
            return lambda suite, *args, **kwargs: self.call(name, fn, suite, *args, tag=suite, **kwargs)
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def install(self, qsphere_modules: dict):
        """Wrap every boundary name; qsphere_modules maps "cli", "verify",
        "rep" and "algebra" to the imported modules."""
        for module_name, attr, span in BOUNDARIES:
            module = qsphere_modules[module_name]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(span, fn, qsphere_modules["algebra"]))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _check_intervals(spans, index, children):
    """(check, start, end) pieces of a run_suite or lemma_aux span."""
    name, start, end, _, _, tag = spans[index]
    if name == "verify.lemma_aux":
        return [("lemma_aux", start, end)]
    if tag == "relations":
        split = next((spans[c][1] for c in children if spans[c][0] == "rep.apply_element"), end)
        return [("symbolic_relations", start, split), ("relations_in_rep", split, end)]
    check = SUITE_CHECKS.get(tag)
    return [(check, start, end)] if check else []


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer totals over the spans of the traced pass.  Set-up spans
    (operation id "setup") only feed algebra.presentation_build_s."""
    counts = defaultdict(int, counts)
    total, calls, child = defaultdict(float), defaultdict(int), defaultdict(float)
    modes = defaultdict(float)
    children = defaultdict(list)
    setup_presentation = 0.0
    for i, (name, start, end, parent, op, tag) in enumerate(spans):
        if op == "setup":
            if name == "algebra.presentation":
                setup_presentation += end - start
            continue
        total[name] += end - start
        calls[name] += 1
        if name == "rep.apply_element":
            modes[tag] += end - start
        if parent >= 0:
            child[spans[parent][0]] += end - start
            children[parent].append(i)

    check_s, check_self = defaultdict(float), defaultdict(float)
    for i, (name, _, _, _, op, _) in enumerate(spans):
        if op == "setup" or name not in ("verify.run_suite", "verify.lemma_aux"):
            continue
        for check, a, b in _check_intervals(spans, i, children[i]):
            inner = sum(spans[c][2] - spans[c][1] for c in children[i]
                        if a <= spans[c][1] < b and spans[c][0].startswith(("rep.", "algebra.")))
            check_s[check] += b - a
            check_self[check] += b - a - inner

    normalize_s = total["algebra.normalize"]
    out = {
        "cli.main_calls": calls["cli.main"],
        "cli.main_self_s": total["cli.main"] - child["cli.main"],
        "expr.parse_calls": calls["expr.parse"],
        "expr.parse_s": total["expr.parse"],
        "expr.print_canonical_s": total["expr.print_canonical"],
        "algebra.presentation_build_s": setup_presentation,
        "algebra.normalize_calls": calls["algebra.normalize"],
        "algebra.normalize_s": normalize_s,
        "algebra.normalize_self_s": normalize_s - child["algebra.normalize"],
        "algebra.rewrite_steps": counts["algebra.rewrite_steps"],
        "algebra.steps_per_s": counts["algebra.rewrite_steps"] / normalize_s if normalize_s else 0.0,
        "algebra.nf_terms": counts["algebra.nf_terms"],
        "rep.matrix_calls": calls["rep.matrix"],
        "rep.matrix_s": total["rep.matrix"],
        "rep.matrix_entries": counts["rep.matrix_entries"],
        "rep.matrix_json_s": total["rep.matrix_json"],
        "rep.apply_element_numeric_s": modes["numeric"],
        "rep.apply_element_exact_s": modes["exact"],
        "rep.apply_element_calls": calls["rep.apply_element"],
        "scalar.radical_canonicalize_calls": calls["scalar.radical_canonicalize"],
        "scalar.radical_canonicalize_s": total["scalar.radical_canonicalize"],
        "scalar.qpochhammer_s": total["scalar.qpochhammer"],
    }
    for check in CHECKS:
        out[f"verify.{check}_s"] = check_s[check]
        out[f"verify.{check}_self_s"] = check_self[check]
    out["verify.joint_kernel_dims_s"] = check_s["kernel_structure"]
    return out
