"""The three benchmark workloads and their output checks.

A workload builds all of its inputs from the seed when it is created, runs
one warm-up item, and then runs full passes.  Every item of a pass reports
to a Tally.  An item on an input the package handles today is an operation:
it counts in attempted, and a failure makes the run incorrect.  A
scale-stress spec of `instances` probes the known large-scale defect: it
runs in every pass like the others, but its outcome is only counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from taxicassini import cassini, cli, oracle, svg
from taxicassini.cassini import AssemblyError, CassiniSpec, PointLocation
from taxicassini.core import GeometryError, Point, PointGroup
from tracing import CAMPAIGN_MODES

HERE = Path(__file__).resolve().parent

# The package's own error types: an item that raises one counts as failed.
PACKAGE_ERRORS = (GeometryError, AssemblyError)


class Tally:
    """Operations attempted and failed, and the known-defect probes.

    An item whose failure would be the known defect (`known_defect=True`)
    is a probe, not an operation: it counts in `probes`, and in `known` if
    it fails.  Every other failure is a wrong answer.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.probes = 0
        self.known = 0

    def item(self, ok: bool, what: str, known_defect: bool = False) -> None:
        if known_defect:
            self.probes += 1
            self.known += not ok
            return
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong.append(what)

    def ok_ratio(self) -> float:
        """Items that passed their checks over all items, probes included."""
        items = self.attempted + self.probes
        return (items - self.failed - self.known) / items


# ---------------------------------------------------------------- verify

class Verify:
    """`taxicassini verify --seed S` in-process, every mode at its default size."""

    PROBE = "python"  # the speed-probe task that resembles the bottleneck

    def __init__(self, seed: int, root: Path) -> None:
        self.argv = ["verify", "--seed", str(seed)]
        self.first_report: str | None = None

    def _run(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def warm_up(self, tally: Tally, tracer) -> None:
        # One trial of every mode: the first call into every layer.
        code, report = self._run(self.argv + ["--trials", "1"])
        tally.item(code == 0 and report.endswith("overall: pass\n"), "verify warm-up")

    def run_pass(self, tally: Tally, tracer) -> None:
        try:
            code, report = self._run(self.argv)
        except PACKAGE_ERRORS as exc:  # fails every item of the pass
            code, report = None, f"{type(exc).__name__}: {exc}"
        if self.first_report is None:
            self.first_report = report
        lines = report.splitlines()
        whole_ok = code == 0 and lines[-1:] == ["overall: pass"] and report == self.first_report
        for k, mode in enumerate(CAMPAIGN_MODES):
            line = lines[k] if k < len(lines) else ""
            ok = whole_ok and line.startswith(f"mode={mode} ") and " failures=0 " in line
            tally.item(ok, f"verify {mode}: exit {code}, line {line!r}")


# ---------------------------------------------------------- oracle-refine

_REFINE_FIXTURES = ("strips-wide", "family-super")
_REFINE_LEVELS = (257, 1025, 4097)
_RING_SAMPLES = 128
_RATIO_BOUND = 0.6


def load_fixtures(root: Path) -> dict[str, CassiniSpec]:
    specs = {}
    with open(root / "fixtures" / "instances.jsonl", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rec = json.loads(line)
                p = Point(float(rec["p"][0]), float(rec["p"][1]))
                q = Point(float(rec["q"][0]), float(rec["q"][1]))
                specs[rec["label"]] = CassiniSpec(p, q, float(rec["r"]))
    return specs


def _about_midpoint(spec: CassiniSpec, element: PointGroup) -> CassiniSpec:
    mx, my = (spec.p.x1 + spec.q.x1) / 2, (spec.p.x2 + spec.q.x2) / 2

    def move(x: Point) -> Point:
        y1, y2 = element.apply(x.x1 - mx, x.x2 - my)
        return Point(y1 + mx, y2 + my)

    return CassiniSpec(move(spec.p), move(spec.q), spec.r)


class OracleRefine:
    """Criterion-5 refinement ladder on two fixtures under a seeded symmetry."""

    PROBE = "numpy"

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        self.element = list(PointGroup)[int(rng.integers(len(PointGroup)))]
        fixtures = load_fixtures(root)
        self.specs = [(label, _about_midpoint(fixtures[label], self.element)) for label in _REFINE_FIXTURES]

    def _ladder(self, spec: CassiniSpec, levels, tracer) -> list[str]:
        """Run the ladder; return the criterion-5 checks that failed."""
        curve = cassini.build_curves(spec)[0]
        ring = [(x.x1, x.x2) for x in cassini.curve_polyline(curve, _RING_SAMPLES)]
        ring.append(ring[0])
        problems = []
        dists = []
        for n in levels:
            with tracer.span("bench.level", n=n):
                grid = oracle.grid_field(spec, n=n)
                contour = oracle.extract_contour(grid)
                closed = oracle.component_count(contour)
                if closed != 1 or len(contour.polylines) != 1:
                    problems.append(f"n={n}: {closed} closed of {len(contour.polylines)}")
                    continue
                d = oracle.hausdorff(ring, contour.polylines[0])
            dists.append(d)
            if not d <= 2 * grid.spacing:
                problems.append(f"n={n}: d={d!r} > 2h={2 * grid.spacing!r}")
        for coarse, fine in zip(dists, dists[1:]):
            if not fine / coarse <= _RATIO_BOUND:
                problems.append(f"ratio {fine / coarse!r} > {_RATIO_BOUND}")
        return problems

    def _item(self, tally: Tally, label: str, spec: CassiniSpec, levels, tracer) -> None:
        try:
            problems = self._ladder(spec, levels, tracer)
        except PACKAGE_ERRORS as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        tally.item(not problems, f"{label} {self.element.name}: {'; '.join(problems)}")

    def warm_up(self, tally: Tally, tracer) -> None:
        label, spec = self.specs[0]
        self._item(tally, label, spec, _REFINE_LEVELS[:1], tracer)

    def run_pass(self, tally: Tally, tracer) -> None:
        for label, spec in self.specs:
            self._item(tally, label, spec, _REFINE_LEVELS, tracer)


# -------------------------------------------------------------- instances

SPECS_PER_PASS = 1600
STRESS_EVERY = 8  # every eighth spec is a scale-stress spec
PROBES_PER_SPEC = 32
SAMPLES_PER_CURVE = 64
CLASSIFY_TOL = 1e-9

# The three criterion-9 figures as the CLI renders them, plus the wide one
# with the oracle overlay.  Digests live in svg_digests.json.
FIGURES = (
    ("family", (4.0, 1.0), (-4.0, -1.0), (3.0, 5.0, 6.0), False),
    ("wide", (8.0, 3.0), (-8.0, -3.0), (16.0,), False),
    ("single", (4.0, 1.0), (-4.0, -1.0), (6.0,), False),
    ("wide-oracle", (8.0, 3.0), (-8.0, -3.0), (16.0,), True),
)


def _random_spec(rng: np.random.Generator) -> CassiniSpec:
    # Coordinates uniform in [-20, 20], r uniform in (0, 40]: the campaign
    # distribution of taxicassini.campaign.random_spec, drawn here so that a
    # change to the package cannot change the workload's inputs.  Python
    # floats, like the ones the CLI parses.
    while True:
        coords = rng.uniform(-20.0, 20.0, 4).tolist()
        r = float(rng.uniform(0.0, 40.0))
        p, q = Point(coords[0], coords[1]), Point(coords[2], coords[3])
        if r > 0 and p != q:
            return CassiniSpec(p, q, r)


def _stress_spec(rng: np.random.Generator) -> CassiniSpec:
    # Signed coordinates log-uniform over 1e-6 .. 1e9, and r = r* * 10^u with
    # u uniform in [-3.3, -1], so r << r*.
    while True:
        signs = np.where(rng.random(4) < 0.5, -1.0, 1.0)
        coords = (signs * 10.0 ** rng.uniform(-6.0, 9.0, 4)).tolist()
        p, q = Point(coords[0], coords[1]), Point(coords[2], coords[3])
        if p != q:
            rstar = (abs(p.x1 - q.x1) + abs(p.x2 - q.x2)) / 2
            return CassiniSpec(p, q, rstar * 10.0 ** float(rng.uniform(-3.3, -1.0)))


def _l1_product(spec: CassiniSpec, xy: np.ndarray) -> np.ndarray:
    """d(x, p) * d(x, q) in NumPy, independent of the package."""
    dp = np.abs(xy[:, 0] - spec.p.x1) + np.abs(xy[:, 1] - spec.p.x2)
    dq = np.abs(xy[:, 0] - spec.q.x1) + np.abs(xy[:, 1] - spec.q.x2)
    return dp * dq


def _expected_locations(spec: CassiniSpec, xy: np.ndarray, tol: float) -> list[PointLocation]:
    f = _l1_product(spec, xy)
    target = spec.r * spec.r
    band = tol * max(1.0, target)
    on = np.abs(f - target) <= band
    inside = f < target - band
    return [
        PointLocation.ON if o else PointLocation.INSIDE if i else PointLocation.OUTSIDE
        for o, i in zip(on.tolist(), inside.tolist())
    ]


def _probe_points(spec: CassiniSpec, rng: np.random.Generator) -> np.ndarray:
    half = abs(spec.p.x1 - spec.q.x1) + abs(spec.p.x2 - spec.q.x2) + spec.r + 1.0
    mx, my = (spec.p.x1 + spec.q.x1) / 2, (spec.p.x2 + spec.q.x2) / 2
    return np.column_stack(
        [
            rng.uniform(mx - half, mx + half, PROBES_PER_SPEC),
            rng.uniform(my - half, my + half, PROBES_PER_SPEC),
        ]
    )


class Instances:
    """Build, sample, classify and render seeded instances."""

    PROBE = "python"

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng(seed)
        self.items = []
        for k in range(SPECS_PER_PASS):
            stress = k % STRESS_EVERY == STRESS_EVERY - 1
            spec = _stress_spec(rng) if stress else _random_spec(rng)
            xy = _probe_points(spec, rng)
            points = [Point(float(x), float(y)) for x, y in xy]
            self.items.append((spec, stress, xy, points))
        with open(HERE / "svg_digests.json", encoding="utf-8") as handle:
            self.digests = json.load(handle)

    def _spec_item(self, tally: Tally, k: int, tracer) -> None:
        spec, stress, probe_xy, probe_points = self.items[k]
        what = f"spec {k} {'scale-stress ' if stress else ''}{spec}"
        try:
            curves = cassini.build_curves(spec)
        except PACKAGE_ERRORS as exc:
            tally.item(False, f"{what}: {type(exc).__name__} {exc}", known_defect=stress)
            return
        samples = [x for curve in curves for x in cassini.sample_curve(curve, SAMPLES_PER_CURVE)]
        sample_xy = np.array([(x.x1, x.x2) for x in samples], dtype=float)
        target = spec.r * spec.r
        residual = np.abs(_l1_product(spec, sample_xy) - target) / max(1.0, target)
        points = probe_points + samples
        with tracer.span("cassini.classify_point.batch", points=len(points)):
            verdicts = [cassini.classify_point(spec, x, tol=CLASSIFY_TOL) for x in points]
        expected = _expected_locations(spec, np.vstack([probe_xy, sample_xy]), CLASSIFY_TOL)
        if verdicts != expected:
            # The same arithmetic on the same doubles: never a known defect.
            tally.item(False, f"{what}: classify_point disagrees with the L1 product")
            return
        worst = float(residual.max())
        tally.item(
            worst <= cassini.RESIDUAL_RTOL,
            f"{what}: sampled residual {worst!r}",
            known_defect=stress,
        )

    def _figure_item(self, tally: Tally, figure) -> None:
        name, p, q, radii, overlay = figure
        try:
            payload = svg.render_svg(Point(*p), Point(*q), radii, overlay_oracle=overlay)
        except PACKAGE_ERRORS as exc:
            payload = f"{type(exc).__name__}: {exc}".encode()
        digest = hashlib.sha256(payload).hexdigest()
        tally.item(digest == self.digests[name], f"figure {name}: sha256 {digest}")

    def warm_up(self, tally: Tally, tracer) -> None:
        self._spec_item(tally, 0, tracer)

    def run_pass(self, tally: Tally, tracer) -> None:
        for k in range(len(self.items)):
            self._spec_item(tally, k, tracer)
        for figure in FIGURES:
            self._figure_item(tally, figure)


WORKLOADS = {"verify": Verify, "oracle-refine": OracleRefine, "instances": Instances}
