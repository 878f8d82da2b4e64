"""Call-site tracing of sewkit from outside the package.

``installed(tracer)`` replaces public sewkit names at the module attributes
through which the CLI reaches them, and restores them on exit; sewkit's
source is not touched.  Coarse calls become spans (name, start, end, parent
span, op id) kept in memory; the very frequent calls (a model's ``mu``, the
``eval`` of the maps it returns, ``LipPath.at``) only add to a count and an
aggregate time.  ``layer_metrics`` turns both into the per-layer metrics.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: the stop reason of a sew whose limit came from the geometric-tail extrapolation
_EXTRAPOLATED = "extrapolated successive distance below tol"
_BUILDS = ("build_model", "build_path", "build_homotopy")


class Tracer:
    """Spans, hot-call counters and derived counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, post: Callable[[Any, tuple], Any] | None = None):
        """Wrap fn so each call records a span; post(result, args) may replace the result."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
            return out if post is None else post(out, args)

        return traced

    def counted(self, name: str, fn: Callable):
        """Wrap fn so each call adds to a count and an aggregate time, without a span."""
        cell = self.hot[name]

        def counted_call(*args):
            t0 = perf_counter()
            out = fn(*args)
            cell[1] += perf_counter() - t0
            cell[0] += 1
            return out

        return counted_call

    def wrap_model(self, model, _args=()):
        """The model with mu counted, and the eval of every map mu returns counted."""
        from sewkit.metric import ProbedMap

        timed_mu = self.counted("models.mu", model.mu)

        def counted_mu(a, b):
            pm = timed_mu(a, b)
            return ProbedMap(pm.source, pm.target, self.counted("models.eval", pm.eval))

        return replace(model, mu=counted_mu)

    def _record_sew(self, out, _args):
        cert = out[1]
        self.counts["sewing.levels"] += len(cert.levels)
        self.counts["sewing.final_k"] += cert.final_subdivision.k
        self.counts["sewing.extrapolated"] += cert.stop_reason == _EXTRAPOLATED
        return out

    def _record_net(self, net, _args):
        self.counts["knitting.net_nodes"] += (net.k + 1) ** 2
        return net

    def _record_fit(self, report, args):
        self.counts["certify.samples"] += len(args[1])
        return report

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Replace the traced sewkit names for the duration of the block."""
    from sewkit import certify, cli, knitting, paths, sewing

    s = tracer.span
    sew = s("sew", sewing.sew, tracer._record_sew)
    reg = s("regular", sewing.regular)
    chain = s("compose_chain", sewing.compose_chain)
    dist = s("map_distance", sewing.map_distance_value)
    patches = [
        (sewing, "zeta", s("zeta", sewing.zeta)),
        (sewing, "mesh", s("mesh", sewing.mesh)),
        (sewing, "dyadic_refine", s("dyadic_refine", sewing.dyadic_refine)),
        (sewing, "regular", reg),
        (knitting, "regular", reg),
        (sewing, "compose_chain", chain),
        (knitting, "compose_chain", chain),
        (certify, "compose_chain", chain),
        (sewing, "map_distance_value", dist),
        (knitting, "map_distance_value", dist),
        (certify, "map_distance_value", dist),
        (knitting, "sew", sew),
        (cli, "sew", sew),
        (knitting, "pullback_flow", s("pullback_flow", knitting.pullback_flow)),
        (cli, "holonomy", s("holonomy", cli.holonomy)),
        (cli, "build_net", s("build_net", cli.build_net, tracer._record_net)),
        (cli, "knit_compare", s("knit_compare", cli.knit_compare)),
        (cli, "build_model", s("build_model", cli.build_model, tracer.wrap_model)),
        (cli, "build_path", s("build_path", cli.build_path)),
        (cli, "build_homotopy", s("build_homotopy", cli.build_homotopy)),
        (paths.LipPath, "at", tracer.counted("paths.at", paths.LipPath.at)),
    ]
    for name in ("fit_three_point", "fit_strong_four_point"):
        patches.append((cli.certify_mod, name, s("fit", getattr(cli.certify_mod, name),
                                                 tracer._record_fit)))
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield tracer
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def layer_metrics(tracer: Tracer, zeta_misses: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times of a traced pass, as name -> (value, unit)."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for name, t0, t1, parent, _ in tracer.spans:
        child[parent] += t1 - t0
    for idx, (name, t0, t1, parent, _) in enumerate(tracer.spans):
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child[idx]
        if name in _BUILDS and (parent < 0 or tracer.spans[parent][0] not in _BUILDS):
            total["cli.build"] += t1 - t0
    hot, counts = tracer.hot, tracer.counts
    sews = calls["sew"]
    return {
        "sewing.zeta_calls": (calls["zeta"], "count"),
        "sewing.zeta_misses": (zeta_misses, "count"),
        "sewing.zeta_s": (total["zeta"], "s"),
        "sewing.sew_calls": (sews, "count"),
        "sewing.sew_self_s": (self_s["sew"], "s"),
        "sewing.levels": (counts["sewing.levels"], "count"),
        "sewing.final_k": (counts["sewing.final_k"], "count"),
        "sewing.extrapolated_frac": (counts["sewing.extrapolated"] / sews if sews else 0.0, "ratio"),
        "models.mu_calls": (hot["models.mu"][0], "count"),
        "models.mu_s": (hot["models.mu"][1], "s"),
        "models.eval_calls": (hot["models.eval"][0], "count"),
        "models.eval_s": (hot["models.eval"][1], "s"),
        "subdivision.refine_calls": (calls["dyadic_refine"], "count"),
        "subdivision.refine_s": (total["dyadic_refine"], "s"),
        "subdivision.mesh_calls": (calls["mesh"], "count"),
        "subdivision.mesh_s": (total["mesh"], "s"),
        "subdivision.regular_s": (total["regular"], "s"),
        "paths.at_calls": (hot["paths.at"][0], "count"),
        "paths.at_s": (hot["paths.at"][1], "s"),
        "paths.pullback_calls": (calls["pullback_flow"], "count"),
        "knitting.build_net_s": (total["build_net"], "s"),
        "knitting.net_nodes": (counts["knitting.net_nodes"], "count"),
        "knitting.knit_compare_s": (total["knit_compare"], "s"),
        "knitting.holonomy_calls": (calls["holonomy"], "count"),
        "knitting.holonomy_self_s": (self_s["holonomy"], "s"),
        "metric.map_distance_calls": (calls["map_distance"], "count"),
        "metric.map_distance_s": (total["map_distance"], "s"),
        "metric.compose_chain_calls": (calls["compose_chain"], "count"),
        "metric.compose_chain_s": (total["compose_chain"], "s"),
        "certify.fit_calls": (calls["fit"], "count"),
        "certify.fit_s": (total["fit"], "s"),
        "certify.samples": (counts["certify.samples"], "count"),
        "cli.run_s": (total["cli.run"], "s"),
        "cli.self_s": (self_s["cli.run"], "s"),
        "cli.build_s": (total["cli.build"], "s"),
    }
