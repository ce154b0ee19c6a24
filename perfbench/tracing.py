"""Spans around weylkit's public functions, recorded from outside.

install() replaces each traced function in every weylkit module
namespace that binds it, so calls between modules are traced too
(`classify` is bound in both bruhat and topology, `generate` in weyl,
bruhat, families and cli).  WeylGroup.reduced_word is wrapped on the
class.  Each span records name, parent, job id, start and end; spans
stay in memory until summary() or dump().  A span's self time is its
duration minus the durations of its direct child spans: calls are
nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# layer (= module) -> public functions traced in it
TRACED = {
    "cartan": ("build_root_system", "positive_coroots"),
    "weyl": ("generate", "WeylGroup.reduced_word"),
    "bruhat": ("build_order", "leq", "verify_short_small",
               "enumerate_balanced", "is_downward_closed", "classify",
               "orthogonal", "minimal_generators", "ideal_to_json_dict"),
    "parabolic": ("build_parabolic", "quotient_ideal", "is_right_invariant"),
    "families": ("perm_table", "incidence_ideal", "lower_half_ideal",
                 "principal_2n_ideal"),
    "topology": ("omega_betti", "splitting_check", "hausdorff_bound",
                 "euler_omega", "flag_poincare", "omega2n_closed_form",
                 "homotopy_distinction"),
    "bbw": ("bbw_cohomology", "classify_weight", "weyl_dimension",
            "sheaf_cohomology_cases"),
    "cli": ("main",),
}

MODULES = ("weylkit", "weylkit.cartan", "weylkit.weyl", "weylkit.bruhat",
           "weylkit.parabolic", "weylkit.families", "weylkit.topology",
           "weylkit.bbw", "weylkit.cli")

# bruhat.enumerate_balanced phases, read from its direct children
CERTIFY = ("bruhat.is_downward_closed", "bruhat.classify", "bruhat.orthogonal")
ORDERING = ("bruhat.minimal_generators", "weyl.reduced_word")

SPAN_NAMES = tuple(f"{layer}.{fn.split('.')[-1]}"
                   for layer, fns in TRACED.items() for fn in fns)

COUNTERS = ("weyl.generate.elements", "bruhat.cover_edges",
            "bruhat.mask_bytes_computed", "bruhat.enumerate_balanced.results")


def _count_results(counters: dict, name: str, result) -> None:
    if name == "weyl.generate":
        counters["weyl.generate.elements"] += result.order
    elif name == "bruhat.build_order":
        counters["bruhat.cover_edges"] += sum(len(c) for c in result.covers)
        for masks in (result.down, result.up):
            if masks is not None:
                counters["bruhat.mask_bytes_computed"] += sum(
                    (m.bit_length() + 7) // 8 for m in masks)
    elif name == "bruhat.enumerate_balanced":
        counters["bruhat.enumerate_balanced.results"] += len(result)


class Tracer:
    """Span store for one process; `job` tags the spans of the current job."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name index, parent, job, start, end]
        self.errors = {layer: 0 for layer in TRACED}
        self.counters = {name: 0 for name in COUNTERS}
        self.job = 0
        self.paused = False              # set while the benchmark checks outputs
        self._stack: list[int] = []
        self._last_error = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, layer: str, fn):
        name = SPAN_NAMES[idx]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [idx, stack[-1] if stack else -1, self.job, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each exception once, where it first leaves a
                # public function
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            _count_results(self.counters, name, result)
            return result
        return traced

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        idx = 0
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"weylkit.{layer}")
            for fn_name in fns:
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(idx, layer, orig))
                else:
                    orig = getattr(home, fn_name)
                    wrapper = self._wrap(idx, layer, orig)
                    for mod in mods:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                self._restore.append((mod, attr, orig))
                                setattr(mod, attr, wrapper)
                idx += 1

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write spans, errors and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": SPAN_NAMES, "spans": self.spans,
                       "errors": self.errors, "counters": self.counters}, fh)

    def absorb(self, doc: dict, job: int) -> None:
        """Append the spans dumped by another process under job id `job`."""
        offset = len(self.spans)
        for idx, parent, _job, start, end in doc["spans"]:
            self.spans.append([idx, parent + offset if parent >= 0 else -1,
                               job, start, end])
        for layer, n in doc["errors"].items():
            self.errors[layer] += n
        for name, n in doc["counters"].items():
            self.counters[name] += n


def summary(tracer: Tracer) -> dict:
    """Totals per span name: calls, self_s; plus the enumerator phases."""
    n = len(SPAN_NAMES)
    calls = [0] * n
    total = [0.0] * n
    child = [0.0] * n
    spans = tracer.spans
    enum_idx = SPAN_NAMES.index("bruhat.enumerate_balanced")
    certify = {SPAN_NAMES.index(s) for s in CERTIFY}
    ordering = {SPAN_NAMES.index(s) for s in ORDERING}
    certify_s = ordering_s = 0.0
    for idx, parent, _job, start, end in spans:
        dur = end - start
        calls[idx] += 1
        total[idx] += dur
        if parent >= 0:
            pidx = spans[parent][0]
            child[pidx] += dur
            if pidx == enum_idx:
                if idx in certify:
                    certify_s += dur
                elif idx in ordering:
                    ordering_s += dur
    out = {}
    for i, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = calls[i]
        out[f"{name}.self_s"] = total[i] - child[i]
    out["bruhat.certify_s"] = certify_s
    out["bruhat.ordering_s"] = ordering_s
    out.update(tracer.counters)
    for layer, n_err in tracer.errors.items():
        out[f"{layer}.errors"] = n_err
    return out
