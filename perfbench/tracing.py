"""Span tracing of taxicassini from outside the package.

The tracer wraps the package's public functions and rebinds each wrapper
under every module attribute that refers to the original, so calls made
inside the package (for example ``taxicassini.campaign.build_curves`` or
``taxicassini.svg.grid_field``) go through the wrapper as well.  A wrapper
either records a span (name, start, end, parent span, attributes) or, for
functions called once per point, only bumps a counter.  Spans stay in
memory until the run ends.

``per_layer_metrics`` turns the spans of the traced passes into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from collections import Counter, defaultdict
from typing import Callable, Iterator, Optional

from taxicassini import campaign, cassini, characterization, cli, core, oracle, svg

import taxicassini

# Every module whose namespace may hold a reference to a wrapped function.
MODULES = (taxicassini, core, cassini, characterization, oracle, campaign, svg, cli)

# Package layers in the order they are reported; "bench" is the benchmark's
# own code outside every package span.
LAYERS = ("cassini", "characterization", "oracle", "campaign", "svg", "cli", "bench")

CAMPAIGN_MODES = (
    "residual",
    "union-of-intersections",
    "intersection-of-unions",
    "cross-subsets",
    "cross-equalities",
    "topology",
    "boundary",
)

# Per-layer metrics, in the order BENCHMARK.json lists them with their units.
PER_LAYER = (
    "cassini.build_curves.calls",
    "cassini.build_curves.us_p50",
    "cassini.build_curves.us_tail",
    "cassini.sample_curve.s",
    "cassini.classify_point.us_per_point",
    "cassini.product_value.calls",
    "cassini.assembly_errors",
    "core.taxicab_distance.calls",
    "characterization.verify_identity.s",
    "characterization.verify_identity.ns_per_point",
    "characterization.verify_identity.points",
    "characterization.skipped_ratio",
    "characterization.grid_points.s",
    "characterization.boundary_check.s",
    "oracle.grid_field.s",
    "oracle.grid_field.nodes",
    "oracle.grid_field.ns_per_node",
    "oracle.grid_field.bytes_computed",
    "oracle.grid_field.n4097.s",
    "oracle.extract_contour.s",
    "oracle.extract_contour.ns_per_node",
    "oracle.extract_contour.vertices",
    "oracle.extract_contour.n4097.s",
    "oracle.hausdorff.s",
    "oracle.hausdorff.pairs",
    "oracle.hausdorff.ns_per_pair",
    "oracle.hausdorff.n4097.s",
    *(f"campaign.{mode}.s" for mode in CAMPAIGN_MODES),
    "campaign.trials",
    "svg.render_svg.s",
    "svg.render_svg.bytes",
    "svg.render_svg.oracle_s",
    "cli.main.self_s",
    "trace.overhead_s",
    *(f"layer.{layer}.self_share" for layer in LAYERS),
)

# Counts that must repeat exactly across passes and runs of one code and seed.
EXACT_COUNTS = (
    "cassini.build_curves.calls",
    "cassini.product_value.calls",
    "cassini.assembly_errors",
    "core.taxicab_distance.calls",
    "characterization.verify_identity.points",
    "oracle.grid_field.nodes",
    "oracle.extract_contour.vertices",
    "oracle.hausdorff.pairs",
    "campaign.trials",
)

_FLOAT64_BYTES = 8


def _pairs(a, b) -> int:
    # Vertices of each polyline against the segments of the other.
    return len(a) * max(1, len(b) - 1) + len(b) * max(1, len(a) - 1)


def _grid_attrs(args, kwargs, grid) -> dict:
    return {"n": grid.nx, "nodes": grid.nx * grid.ny}


def _contour_attrs(args, kwargs, contour) -> dict:
    grid = args[0] if args else kwargs["grid"]
    return {
        "n": grid.nx,
        "nodes": grid.nx * grid.ny,
        "vertices": sum(len(line) for line in contour.polylines),
    }


def _hausdorff_attrs(args, kwargs, result) -> dict:
    return {"pairs": _pairs(args[0], args[1])}


def _identity_attrs(args, kwargs, report) -> dict:
    return {"points": report.trials, "skipped": report.skipped_boundary_band}


def _campaign_attrs(args, kwargs, result) -> dict:
    return {"trials": result.trials}


def _render_attrs(args, kwargs, payload) -> dict:
    return {"bytes": len(payload)}


def _identity_campaign_name(args, kwargs) -> str:
    mode = args[0] if args else kwargs["mode"]
    return f"campaign.{mode.value}"


# Functions wrapped in spans: original -> (span name or namer, attribute maker).
_SPANNED = (
    (cassini.build_curves, "cassini.build_curves", None),
    (cassini.sample_curve, "cassini.sample_curve", None),
    (cassini.curve_polyline, "cassini.curve_polyline", None),
    (characterization.verify_identity, "characterization.verify_identity", _identity_attrs),
    (characterization.grid_points, "characterization.grid_points", None),
    (characterization.boundary_check, "characterization.boundary_check", None),
    (oracle.grid_field, "oracle.grid_field", _grid_attrs),
    (oracle.extract_contour, "oracle.extract_contour", _contour_attrs),
    (oracle.hausdorff, "oracle.hausdorff", _hausdorff_attrs),
    (campaign.run_residual_campaign, "campaign.residual", _campaign_attrs),
    (campaign.run_identity_campaign, _identity_campaign_name, _campaign_attrs),
    (campaign.run_topology_campaign, "campaign.topology", _campaign_attrs),
    (campaign.run_boundary_campaign, "campaign.boundary", _campaign_attrs),
    (svg.render_svg, "svg.render_svg", _render_attrs),
    (cli.main, "cli.main", None),
)

# Functions called once per point: counted, never timed per call.
_COUNTED = (
    (core.taxicab_distance, "core.taxicab_distance.calls"),
    (cassini.product_value, "cassini.product_value.calls"),
    (cassini.classify_point, "cassini.classify_point.calls"),
)


class NullTracer:
    """Stand-in used by untraced passes: benchmark-owned spans cost nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._NULL

    def begin_pass(self) -> None:
        pass


class Tracer:
    """Records spans and counters, one group per traced pass."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        # Closed spans: (pass, id, parent id, name, start, end, self seconds, attrs).
        self.spans: list[tuple] = []
        self.pass_counts: list[Counter] = []
        self._pass = -1
        self._counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._next_id = 0
        self._rebound: list[tuple] = []

    def begin_pass(self) -> None:
        self._pass += 1
        self._counts = Counter()
        self.pass_counts.append(self._counts)

    def _open(self) -> tuple[int, Optional[int], float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, 0.0])
        return span_id, parent, self._clock()

    def _close(self, span_id, parent, name, start, attrs) -> None:
        end = self._clock()
        _, child_s = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((self._pass, span_id, parent, name, start, end, duration - child_s, attrs))

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        """Span around the benchmark's own code, e.g. a pass or a batch loop."""
        span_id, parent, start = self._open()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start, attrs)

    def _spanned(self, fn, name, make_attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span_id, parent, start = self._open()
            attrs = {}
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if make_attrs is not None:
                    attrs = make_attrs(args, kwargs, result)
                return result
            finally:
                self._close(span_id, parent, span_name, start, attrs)

        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every reference to a traced function to its wrapper."""
        wrappers = {}
        for fn, name, make_attrs in _SPANNED:
            wrappers[fn] = self._spanned(fn, name, make_attrs)
        for fn, key in _COUNTED:
            wrappers[fn] = self._counted(fn, key)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for pass_no, span_id, parent, name, start, end, self_s, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "pass": pass_no,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self_s": self_s,
                            **attrs,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _tail(durations: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(durations)
    for pct in (99.9, 99.0, 90.0, 50.0):
        beyond = len(ordered) * (100.0 - pct) / 100.0
        if beyond >= 10:
            index = min(len(ordered) - 1, int(len(ordered) * pct / 100.0))
            return ordered[index], f"p{pct:g}"
    return ordered[-1], "max"


def _pass_totals(spans: list[tuple], counts: Counter, scale: float) -> dict[str, float]:
    """Per-pass sums: seconds and attributes per span name, counters, layer self time.

    Seconds are multiplied by scale, the pass's nominal-to-wall speed factor.
    """
    totals: dict[str, float] = defaultdict(float)
    totals.update(counts)
    attrs_by_id = {span[1]: span[7] for span in spans}
    names_by_id = {span[1]: span[3] for span in spans}
    for _, span_id, parent, name, start, end, self_s, attrs in spans:
        duration = scale * (end - start)
        self_s *= scale
        totals[f"{name}.s"] += duration
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_s
        totals[f"layer.{name.split('.')[0]}.self_s"] += self_s
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                totals[f"{name}.{key}"] += value
        if name.startswith("campaign."):
            totals["campaign.trials"] += attrs.get("trials", 0)
        if attrs.get("error") == "AssemblyError":
            totals["cassini.assembly_errors"] += 1
        parent_attrs = attrs_by_id.get(parent, {})
        if attrs.get("n") == 4097 or parent_attrs.get("n") == 4097:
            totals[f"{name}.n4097.s"] += duration
        if names_by_id.get(parent) == "svg.render_svg" and name.startswith("oracle."):
            totals["svg.render_svg.oracle_s"] += duration
    return totals


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer, overhead_s: float, speed: list[float]
) -> tuple[dict, list[str], str]:
    """Per-layer metrics of the traced passes, the counts that varied, and a
    label saying which percentile cassini.build_curves.us_tail is.

    speed[k] is pass k's nominal-to-wall factor, which rescales its span
    times to nominal machine speed.  Seconds are medians over passes of
    per-pass totals; counts are per pass and must be equal in every pass.
    """
    by_pass: dict[int, list] = defaultdict(list)
    for span in tracer.spans:
        by_pass[span[0]].append(span)
    passes = [
        _pass_totals(by_pass[k], counts, speed[k]) for k, counts in enumerate(tracer.pass_counts)
    ]

    def med(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in passes)

    # Most metrics are per-pass totals under their own name; the rest derive.
    values = {name: med(name) for name in PER_LAYER}
    build_us = [
        1e6 * speed[s[0]] * (s[5] - s[4]) for s in tracer.spans if s[3] == "cassini.build_curves"
    ]
    tail_us, tail_label = _tail(build_us) if build_us else (0.0, "none")
    values.update(
        {
            "cassini.build_curves.us_p50": statistics.median(build_us) if build_us else 0.0,
            "cassini.build_curves.us_tail": tail_us,
            "cassini.classify_point.us_per_point": _ratio(
                med("cassini.classify_point.batch.s"), med("cassini.classify_point.calls"), 1e6
            ),
            "characterization.verify_identity.ns_per_point": _ratio(
                values["characterization.verify_identity.s"],
                values["characterization.verify_identity.points"],
                1e9,
            ),
            "characterization.skipped_ratio": _ratio(
                med("characterization.verify_identity.skipped"),
                values["characterization.verify_identity.points"],
            ),
            "oracle.grid_field.ns_per_node": _ratio(
                values["oracle.grid_field.s"], values["oracle.grid_field.nodes"], 1e9
            ),
            "oracle.grid_field.bytes_computed": _FLOAT64_BYTES * values["oracle.grid_field.nodes"],
            "oracle.extract_contour.ns_per_node": _ratio(
                values["oracle.extract_contour.s"], med("oracle.extract_contour.nodes"), 1e9
            ),
            "oracle.hausdorff.ns_per_pair": _ratio(
                values["oracle.hausdorff.s"], values["oracle.hausdorff.pairs"], 1e9
            ),
            "trace.overhead_s": overhead_s,
        }
    )
    pass_s = med("bench.pass.s")
    for layer in LAYERS:
        values[f"layer.{layer}.self_share"] = _ratio(med(f"layer.{layer}.self_s"), pass_s)

    varied = [key for key in EXACT_COUNTS if len({p.get(key, 0) for p in passes}) > 1]
    return values, varied, f"{tail_label} of {len(build_us)} calls"


def share_checks(workload: str, values: dict) -> list[tuple[str, bool]]:
    """The layer shares that say why each workload exists, checked."""
    shares = {layer: values[f"layer.{layer}.self_share"] for layer in LAYERS}
    package = {layer: share for layer, share in shares.items() if layer != "bench"}
    checks = []
    if workload == "oracle-refine":
        checks.append(("oracle self time is over half of an oracle-refine pass", shares["oracle"] > 0.5))
    if workload == "instances":
        checks.append(("oracle self time is under a tenth of an instances pass", shares["oracle"] < 0.1))
        checks.append(
            ("cassini is the largest package layer in instances", max(package, key=package.get) == "cassini")
        )
    ran = values["characterization.verify_identity.points"] > 0 or values["characterization.boundary_check.s"] > 0
    checks.append(("characterization runs in verify and nowhere else", ran == (workload == "verify")))
    return checks
