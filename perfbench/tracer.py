"""Run one `klc` command in this process with spans around the layer functions.

Usage: python3 perfbench/tracer.py OUT.json <klc arguments...>

The package is traced from the outside: each layer function named in
SPANS is replaced, under every `klc.*` module attribute bound to it, by a
wrapper that records a span (bucket, parent span, start, end).  `cli.py`
imports the layer functions by name, so rebinding only the defining module
would miss its calls.  Per-element primitives (Field.add/mul/inv, CycInt
operators, mat_mul, mat_trace, _conv_acc, additive_char) run millions of
times per command and are never wrapped; their work is reported as counts
computed from the sizes each span saw.

Spans stay in memory.  When the command ends they are written once to
OUT.json together with those counts, the cache sizes found before the
command started, and the exit code, which this process then exits with.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# layer module -> function -> metric bucket its self time is charged to
SPANS = {
    "charsums": {
        "kloosterman_all": "charsums.kloosterman_s",
        "kloosterman": "charsums.kloosterman_s",
        "kloosterman_gl": "charsums.kloosterman_s",
        "kloosterman_gl_brute": "charsums.kloosterman_s",
        "moment_table": "charsums.moment_table_s",
        "delta_table": "charsums.delta_s",
        "delta": "charsums.delta_s",
        "prop_e_check": "charsums.prop_e_s",
    },
    "groups": {
        "enumerate_group": "groups.enumerate_s",
        "brute_force_orthogonal": "groups.enumerate_s",
        "trace_spectrum": "groups.spectrum_s",
        "trace_spectrum_closed": "groups.spectrum_s",
        "check_trace_spectrum": "groups.spectrum_s",
        "check_gauss_sum": "groups.spectrum_s",
        "gauss_sum": "groups.spectrum_s",
        "gauss_sum_closed": "groups.spectrum_s",
        "closure_spot_check": "groups.spectrum_s",
    },
    "codes": {
        "weight_distribution_dp": "codes.dp_s",
        "weight_distribution_macwilliams": "codes.macwilliams_s",
        "dual_weights": "codes.dual_weights_s",
        "dual_codeword": "codes.dual_weights_s",
        "dual_spectrum": "codes.dual_weights_s",
        "dual_weight_formula": "codes.dual_weights_s",
        "pless_check": "codes.pless_s",
    },
    "moments": {
        "theorem_a1": "moments.recursion_s",
        "theorem_a2": "moments.recursion_s",
        "theorem_l": "moments.recursion_s",
        "corollary_n": "moments.recursion_s",
        "truncated_counts": "moments.recursion_s",
        "predict_t12sk": "moments.recursion_s",
        "solve_sk": "moments.recursion_s",
    },
}

# Calls whose arguments or results the computed counts need.
NOTED = {"kloosterman_all", "delta_table", "enumerate_group", "dual_weights",
         "prop_e_check", "check_gauss_sum", "gauss_sum", "weight_distribution_dp",
         "weight_distribution_macwilliams"}

COLD_CACHES = ("kloosterman_all", "delta_table", "enumerate_group", "dual_weights")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [bucket, parent, start, end]
        self.stack: list[int] = []
        self.notes: list[tuple] = []  # (name, args, kwargs, result, missed)

    def wrap(self, fn, name: str, bucket: str):
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.spans)
            rec = [bucket, self.stack[-1] if self.stack else -1, 0.0, 0.0]
            self.spans.append(rec)
            self.stack.append(idx)
            misses = info().misses if info else 0
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
            if name in NOTED:
                missed = info is None or info().misses > misses
                self.notes.append((name, args, kwargs, result, missed))
            return result

        return span


def install(tracer: Tracer) -> dict:
    """Wrap every function in SPANS and Field.__init__; return the originals.

    Names a later version of the package no longer has are skipped.
    """
    importlib.import_module("klc.cli")
    bound = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "klc"]
    originals = {}
    for layer, funcs in SPANS.items():
        for name, bucket in funcs.items():
            fn = getattr(sys.modules[f"klc.{layer}"], name, None)
            if fn is None:
                continue
            originals[name] = fn
            wrapped = tracer.wrap(fn, name, bucket)
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
    field_cls = sys.modules["klc.field"].Field
    field_cls.__init__ = tracer.wrap(field_cls.__init__, "Field", "field.build_s")
    return originals


def cold_sizes(originals: dict) -> dict:
    """Entries already held by the package caches; a cold command sees zeros."""
    out = {name: originals[name].cache_info().currsize for name in COLD_CACHES
           if hasattr(originals.get(name), "cache_info")}
    spectra = getattr(sys.modules["klc.moments"], "_SPECTRA", None)
    if spectra is not None:
        out["_SPECTRA"] = len(spectra)
    return out


def counts(tracer: Tracer, originals: dict) -> dict:
    """Exact and computed work counts from the noted calls; calls only unwrapped code."""
    from klc.codes import code_length

    out = {"eisenstein.char_evals": 0, "charsums.kloosterman_terms": 0,
           "charsums.delta_tuples": 0, "groups.elements": 0, "codes.dp_calls": 0,
           "codes.dp_cells": 0, "codes.macwilliams_terms": 0, "codes.dual_coords": 0,
           "codes.max_count_bits": 0}
    for name, args, kwargs, result, missed in tracer.notes:
        call = inspect.signature(originals[name]).bind(*args, **kwargs)
        call.apply_defaults()
        arg = call.arguments
        field = arg["field"]
        q = field.q
        if name == "kloosterman_all" and missed:
            out["charsums.kloosterman_terms"] += (q - 1) ** 2
            out["eisenstein.char_evals"] += (q - 1) ** 2
        elif name == "delta_table" and missed and arg["m"] >= 1:
            out["charsums.delta_tuples"] += (q - 1) ** arg["m"]
        elif name == "enumerate_group" and missed:
            out["groups.elements"] += len(result)
        elif name == "dual_weights" and missed:
            out["codes.dual_coords"] += q * code_length(q, arg["tag"])
        elif name == "prop_e_check":
            out["eisenstein.char_evals"] += (arg["mmax"] + 1) * q * (q - 1)
        elif name in ("check_gauss_sum", "gauss_sum"):
            out["eisenstein.char_evals"] += q
        elif name.startswith("weight_distribution_"):
            out["codes.max_count_bits"] = max(out["codes.max_count_bits"],
                                               max(result.counts).bit_length())
            n_total = code_length(q, arg["tag"])
            if name == "weight_distribution_dp":
                # q beta steps over q residues and cap + 1 weights, whatever the beta order
                cap = n_total if arg["truncate_at"] is None else min(arg["truncate_at"], n_total)
                out["codes.dp_calls"] += 1
                out["codes.dp_cells"] += q * q * (cap + 1)
            else:
                out["codes.macwilliams_terms"] += sum(
                    (n_total - w + 1) * (w + 1)
                    for w in originals["dual_weights"](field, arg["tag"]))
    infos = [originals[n].cache_info() for n in ("kloosterman_all", "delta_table")
             if hasattr(originals.get(n), "cache_info")]
    out["charsums.cache_hits"] = sum(i.hits for i in infos)
    out["charsums.cache_calls"] = sum(i.hits + i.misses for i in infos)
    return out


def main(argv: list[str]) -> int:
    out_path, klc_args = argv[0], argv[1:]
    tracer = Tracer()
    originals = install(tracer)
    cold = cold_sizes(originals)
    cli = sys.modules["klc.cli"]
    start = time.perf_counter()
    try:
        cli.main.main(args=klc_args, prog_name="klc", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    record = {"exit_code": code, "main_s": main_s, "cold": cold,
              "spans": tracer.spans, "counts": counts(tracer, originals)}
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
