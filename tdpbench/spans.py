"""Traced mode: in-memory spans and counts at the package's layer boundaries.

A :class:`Tracer` replaces a function at the name its caller looks it up
(``cli.dataset_to_json``, ``mcem.e_step``, ...) with a wrapper that records
a span ``(name, op, start, end, parent)`` and, optionally, counts taken from
the call's result.  ``op`` is the index of the benchmark
operation the span belongs to (-1 during set-up), so spans of one operation
share an identifier.  Nothing is written until :meth:`Tracer.dump`.
:func:`install` wraps the functions the per-layer metrics need and
:func:`layer_metrics` computes them.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

from transparent_dp import asymptotics, bayes_abc, cli, mcem, mechanisms, metrics, naive_fit, rng


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op, start, end, parent index or -1]
        self.counts = []  # (name, op, value)
        self.op = -1
        self._stack = []

    def wrap(self, module, attr, name, count=None):
        """Replace ``module.attr`` (or ``module[attr]`` for a dict) by a
        traced wrapper named ``name``.

        ``count(result)`` runs after the call and returns a dict of counts,
        recorded as ``name.key``.
        """
        is_dict = isinstance(module, dict)
        fn = module[attr] if is_dict else getattr(module, attr)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.op, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
            if count is not None:
                for key, value in count(out).items():
                    self.counts.append((f"{name}.{key}", span[1], value))
            return out

        if is_dict:
            module[attr] = traced
        else:
            setattr(module, attr, traced)

    def totals(self, ops):
        """Per-name (calls, inclusive seconds, self seconds) over ``ops``."""
        child = defaultdict(float)
        for name, op, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, op, start, end, parent) in enumerate(self.spans):
            if op in ops:
                acc = out[name]
                acc[0] += 1
                acc[1] += end - start
                acc[2] += end - start - child[idx]
        return out

    def values(self, name, ops):
        """(op, value) of every count ``name`` recorded during ``ops``."""
        return [(op, v) for n, op, v in self.counts if n == name and op in ops]

    def dump(self, path):
        path.write_text(json.dumps(
            {"fields": ["name", "op", "start", "end", "parent"],
             "spans": self.spans, "counts": self.counts}
        ))


CLI_SUBCOMMANDS = ("simulate", "fit-naive", "privatize", "dissimilarity",
                   "coverage-grid", "clt-limits", "verify-dp")
SELF_MS = ("mcem.e_step", "mcem.m_step", "mcem.observed_fisher", "mcem.run_mcem",
           "cli.main", "simulate.dataset_to_json", "simulate.dataset_from_json",
           "simulate.gen_confidential", "simulate.privatize_dataset",
           "metrics.privatized_dissimilarity_study", "asymptotics.coverage_grid",
           "naive_fit.ols", "rng.stream")

# Every per-layer metric: name, unit and which direction is better.
PER_LAYER = (
    [(f"{name}.self_ms", "ms", "lower") for name in SELF_MS]
    + [(f"cli.{sub}.ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    + [
        ("mechanisms.laplace_noise.draws_per_s", "1/s", "higher"),
        ("mechanisms.double_geometric_noise.draws_per_s", "1/s", "higher"),
        ("rng.stream.calls", "count", "lower"),
        ("mcem.iterations_per_fit", "count", "lower"),
        ("mcem.k_final", "count", "lower"),
        ("mcem.ess_fraction_min", "fraction", "higher"),
        ("mcem.converged_fits", "count", "higher"),
        ("mcem.fisher_pd_fits", "count", "higher"),
        ("mcem.loglik_gap", "nats", "lower"),
        ("bayes_abc.proposals_per_s", "1/s", "higher"),
        ("bayes_abc.accepted_per_s", "1/s", "higher"),
        ("bayes_abc.acceptance_rate", "fraction", "higher"),
        ("bayes_abc.proposals", "count", "lower"),
        ("traced.op_p50_ms", "ms", "lower"),
    ]
)


def install(tracer):
    """Wrap every traced function at the name its caller looks it up."""

    def draws(out):
        return {"draws": np.size(out)}

    def e_step(out):
        state, (x_samples, _) = out
        return {"ess_fraction": state.ess / x_samples.shape[0]}

    def fit(out):
        return {"iterations": len(out.trace), "k_final": out.k_final}

    def abc(out):
        return {"proposals": out.proposals,
                "accepted": round(out.acceptance_rate * out.proposals)}

    for mod in (naive_fit, mcem, cli):
        tracer.wrap(mod, "ols", "naive_fit.ols")
    for mod in (rng, mcem, cli, asymptotics):
        tracer.wrap(mod, "stream", "rng.stream")
    tracer.wrap(mcem, "e_step", "mcem.e_step", e_step)
    tracer.wrap(mcem, "m_step", "mcem.m_step")
    tracer.wrap(mcem, "observed_fisher", "mcem.observed_fisher")
    tracer.wrap(mcem, "run_mcem", "mcem.run_mcem", fit)
    tracer.wrap(bayes_abc, "abc_exact_posterior", "bayes_abc.abc_exact_posterior", abc)
    tracer.wrap(cli, "main", "cli.main")
    for sub in CLI_SUBCOMMANDS:
        tracer.wrap(cli._RUNNERS, sub, f"cli.{sub}")
    for name in ("dataset_to_json", "dataset_from_json", "gen_confidential",
                 "privatize_dataset"):
        tracer.wrap(cli, name, f"simulate.{name}")
    tracer.wrap(mechanisms, "laplace_noise", "mechanisms.laplace_noise", draws)
    for mod in (mechanisms, metrics):
        tracer.wrap(mod, "double_geometric_noise", "mechanisms.double_geometric_noise", draws)
    tracer.wrap(cli, "privatized_dissimilarity_study", "metrics.privatized_dissimilarity_study")
    tracer.wrap(cli, "coverage_grid", "asymptotics.coverage_grid")


def layer_metrics(tracer, n_ops, round_ops):
    """Per-layer metrics from the spans and counts of the timed operations.

    Times are per operation over every timed operation; rates are totals
    over every timed operation; counts are per operation over the first
    ``round_ops`` operations, the first round, so they repeat exactly.
    Layers a workload does not reach read 0.
    """
    timed, counted = range(n_ops), range(round_ops)
    totals = tracer.totals(timed)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = 1000.0 * totals[name][2] / n_ops
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.ms"] = 1000.0 * totals[f"cli.{sub}"][1] / n_ops
    for name in ("mechanisms.laplace_noise", "mechanisms.double_geometric_noise"):
        drawn = sum(v for _, v in tracer.values(f"{name}.draws", timed))
        out[f"{name}.draws_per_s"] = ratio(drawn, totals[name][1])
    out["rng.stream.calls"] = tracer.totals(counted)["rng.stream"][0] / round_ops

    for name, key in (("mcem.iterations_per_fit", "iterations"), ("mcem.k_final", "k_final")):
        fits = [v for _, v in tracer.values(f"mcem.run_mcem.{key}", counted)]
        out[name] = ratio(sum(fits), len(fits))
    lowest = {}
    for op, v in tracer.values("mcem.e_step.ess_fraction", counted):
        lowest[op] = min(v, lowest.get(op, v))
    out["mcem.ess_fraction_min"] = statistics.median(lowest.values()) if lowest else 0.0

    abc = "bayes_abc.abc_exact_posterior"
    seconds = totals[abc][1]
    proposals = sum(v for _, v in tracer.values(f"{abc}.proposals", timed))
    accepted = sum(v for _, v in tracer.values(f"{abc}.accepted", timed))
    out["bayes_abc.proposals_per_s"] = ratio(proposals, seconds)
    out["bayes_abc.accepted_per_s"] = ratio(accepted, seconds)
    proposals = sum(v for _, v in tracer.values(f"{abc}.proposals", counted))
    accepted = sum(v for _, v in tracer.values(f"{abc}.accepted", counted))
    out["bayes_abc.acceptance_rate"] = ratio(accepted, proposals)
    out["bayes_abc.proposals"] = proposals / round_ops
    return out
