"""Command-line surface: instance reports, point classification, SVG
rendering, and seeded verification campaigns.

Exit codes: 0 success, 1 verification found mismatches, 2 malformed
input or flags, a curve that fails to assemble (AssemblyError) or a request
too large for memory, 3 output I/O failure.  Errors print one line to
stderr, never a traceback.
Identical command lines produce byte-identical reports and images (no
timestamps, fixed seeds).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Optional, Sequence

from .campaign import (
    CampaignResult,
    run_boundary_campaign,
    run_identity_campaigns,
    run_residual_campaign,
    run_topology_campaign,
)
from .cassini import (
    AssemblyError,
    CassiniSpec,
    DegenerateInput,
    GuideSegment,
    build_curves,
    classify_point,
    critical_radius,
    topology,
)
from .characterization import IdentityMode
from .core import GeometryError, Point, foci_frame, standardize
from .svg import render_svg

_IDENTITY_TOKENS = tuple(mode.value for mode in IdentityMode)
_ALL_MODES = ("residual",) + _IDENTITY_TOKENS + ("topology", "boundary")


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise GeometryError(f"expected point as 'X,Y', got {text!r}")
    try:
        return Point(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise GeometryError(f"bad point {text!r}: {exc}") from None


def _parse_radii(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise GeometryError(f"bad radius list {text!r}: {exc}") from None
    if not values:
        raise GeometryError(f"no radius values in {text!r}")
    return values


def _record_number(value: object, what: str) -> float:
    # JSON numbers only: float() would also take text, and True as 1.0.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise GeometryError(f"{what} must be a finite number, got {value!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of a repeated key without a word.
    record = {}
    for key, value in pairs:
        if key in record:
            raise GeometryError(f"repeated key {key!r}")
        record[key] = value
    return record


def _parse_record(line: str) -> tuple[str, tuple[Point, Point, float]]:
    """The label and instance of one record line."""
    rec = json.loads(line, object_pairs_hook=_unique_keys)
    if not isinstance(rec, dict):
        raise GeometryError(f"instance record is not an object: {line.strip()!r}")
    missing = {"label", "p", "q", "r"} - set(rec)
    if missing:
        raise GeometryError(f"instance record missing fields {sorted(missing)}")
    name = rec["label"]
    if not isinstance(name, str) or not name:
        raise GeometryError("instance label must be nonempty text")
    foci = []
    for key in ("p", "q"):
        coords = rec[key]
        if not (isinstance(coords, list) and len(coords) == 2):
            raise GeometryError(f"instance point must be [x1, x2], got {coords!r}")
        what = f"instance {name!r} {key} coordinate"
        foci.append(Point(_record_number(coords[0], what), _record_number(coords[1], what)))
    r_val = _record_number(rec["r"], f"instance {name!r} r")
    if r_val < 0:
        raise GeometryError(f"instance {name!r} has negative r")
    return name, (foci[0], foci[1], r_val)


def _load_instance(path: str, label: Optional[str]) -> tuple[Point, Point, float]:
    """Pick one record from a line-delimited instance file.

    Each line is one record: {"label": text, "p": [x1, x2], "q": [x1, x2],
    "r": number}.  Labels must be unique; a single-record file may be used
    without naming a label.  A rejected record is named by its line in the
    file, blank lines counted.
    """
    try:
        with open(path, "rb") as handle:
            # Split where text mode would, at \n, \r\n and \r, but decode
            # each line alone so a bad byte is reported with its line.
            raw_lines = handle.read().splitlines()
    except OSError as exc:
        raise GeometryError(f"cannot read instance file {path!r}: {exc}") from None
    records = {}
    for k, raw in enumerate(raw_lines, 1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            name, instance = _parse_record(line)
            if name in records:
                raise GeometryError(f"duplicate instance label {name!r}")
        except (RecursionError, ValueError) as exc:
            raise GeometryError(f"bad instance record on line {k} of {path!r}: {exc}") from None
        records[name] = instance
    if not records:
        raise GeometryError(f"instance file {path!r} has no records")
    if label is None:
        if len(records) == 1:
            return next(iter(records.values()))
        raise GeometryError(
            f"instance file {path!r} has {len(records)} records; pick one with --label"
        )
    if label not in records:
        raise GeometryError(f"no instance labeled {label!r} in {path!r}")
    return records[label]


def _resolve_instance(args: argparse.Namespace) -> tuple[Point, Point, float]:
    if args.instances is not None:
        if args.p is not None or args.q is not None or args.r is not None:
            raise GeometryError("--instances conflicts with --p/--q/--r")
        return _load_instance(args.instances, args.label)
    _require_explicit_instance(args)
    return _parse_point(args.p), _parse_point(args.q), float(args.r)


def _require_explicit_instance(args: argparse.Namespace) -> None:
    """Check the flags of an instance given by --p, --q and --r."""
    if args.label is not None:
        raise GeometryError("--label needs --instances")
    if args.p is None or args.q is None or args.r is None:
        raise GeometryError("need --p, --q and --r (or --instances)")


def _fmt_num(value: float) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0
    return repr(v)


def _fmt_point(pt: Point) -> str:
    return f"({_fmt_num(pt.x1)}, {_fmt_num(pt.x2)})"


def _fmt_endpoint(pt: Point) -> str:
    return f"({pt.x1:.6f}, {pt.x2:.6f})"


def cmd_info(args: argparse.Namespace) -> int:
    p, q, r = _resolve_instance(args)
    spec = CassiniSpec(p, q, r)
    frame = foci_frame(p, q)
    iso, std_p = standardize(p, q)
    lines = [
        f"p: {_fmt_point(p)}",
        f"q: {_fmt_point(q)}",
        f"r: {_fmt_num(r)}",
        f"r_star: {_fmt_num(critical_radius(p, q))}",
        f"topology: {topology(spec).value}",
        f"c1: {_fmt_point(frame.c1)}",
        f"c2: {_fmt_point(frame.c2)}",
        f"g_plus: {_fmt_point(frame.g_plus)}",
        f"g_minus: {_fmt_point(frame.g_minus)}",
        f"standard_element: {iso.element.name}",
        f"standard_translation: {_fmt_point(iso.translation)}",
        f"standard_focus: {_fmt_point(std_p)}",
    ]
    try:
        curves = build_curves(spec)
    except DegenerateInput:
        curves = []
    lines.append(f"curves: {len(curves)}")
    for ci, curve in enumerate(curves, start=1):
        lines.append(f"curve {ci} pieces: {len(curve)}")
        for pi, piece in enumerate(curve, start=1):
            kind = "segment" if isinstance(piece, GuideSegment) else "arc"
            lines.append(
                f"curve {ci} piece {pi}: region={piece.region.value} kind={kind} "
                f"start={_fmt_endpoint(piece.start)} end={_fmt_endpoint(piece.end)}"
            )
    print("\n".join(lines))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    p, q, r = _resolve_instance(args)
    if args.x is None:
        raise GeometryError("classify needs --x X,Y")
    location = classify_point(CassiniSpec(p, q, r), _parse_point(args.x), tol=args.tol)
    print(location.value)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    if args.instances is not None:
        p, q, r = _resolve_instance(args)
        radii = [r]
    else:
        _require_explicit_instance(args)
        p, q = _parse_point(args.p), _parse_point(args.q)
        radii = _parse_radii(args.r)
    payload = render_svg(
        p,
        q,
        radii,
        samples_per_piece=args.samples,
        overlay_oracle=args.overlay_oracle,
        oracle_n=args.grid,
    )
    with open(args.out, "wb") as handle:
        handle.write(payload)
    return 0


def _trials(args: argparse.Namespace) -> dict:
    # --trials overrides each campaign's own default only when given.
    return {} if args.trials is None else {"trials": args.trials}


def _run_mode(mode: str, args: argparse.Namespace) -> CampaignResult:
    """The residual, topology or boundary campaign of a verify request."""
    if mode == "residual":
        return run_residual_campaign(
            seed=args.seed, samples_per_curve=args.samples, **_trials(args)
        )
    if mode == "topology":
        return run_topology_campaign(seed=args.seed, **_trials(args))
    return run_boundary_campaign(samples_per_curve=args.samples)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.modes is None:
        modes = list(_ALL_MODES)
    else:
        modes = [token.strip() for token in args.modes.split(",") if token.strip()]
        if not modes:
            raise GeometryError(f"--modes names no mode; choose from {', '.join(_ALL_MODES)}")
        unknown = [token for token in modes if token not in _ALL_MODES]
        if unknown:
            raise GeometryError(
                f"unknown verify modes {unknown}; choose from {', '.join(_ALL_MODES)}"
            )
    if args.trials is not None and args.trials < 1:
        raise GeometryError("--trials must be at least 1")
    if args.seed < 0:
        raise GeometryError(f"--seed must be nonnegative, got {args.seed}")
    if args.samples < 8:
        raise GeometryError(f"--samples must be at least 8, got {args.samples}")
    if args.grid < 16:
        raise GeometryError("--grid must be at least 16")
    if not (math.isfinite(args.band) and args.band >= 0):
        raise GeometryError(f"--band must be finite and nonnegative, got {args.band!r}")
    total_failures = 0
    identity_results = None
    for mode in modes:
        if mode in _IDENTITY_TOKENS:
            if identity_results is None:
                identity_results = run_identity_campaigns(
                    grid_n=args.grid, seed=args.seed, band=args.band, **_trials(args)
                )
            result = identity_results[IdentityMode(mode)]
        else:
            result = _run_mode(mode, args)
        total_failures += result.failures
        print(
            f"mode={mode} trials={result.trials} failures={result.failures} "
            f"skipped={result.skipped} worst={result.worst_residual:.6e}"
        )
    print(f"overall: {'pass' if total_failures == 0 else 'fail'}")
    return 0 if total_failures == 0 else 1


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", help="first focus as X,Y")
    sub.add_argument("--q", help="second focus as X,Y")
    sub.add_argument("--instances", help="line-delimited instance file")
    sub.add_argument("--label", help="record label inside --instances")


class _ArgumentParser(argparse.ArgumentParser):
    """Parser that accepts values like -4,-1, -.5,0 or -inf after a flag
    instead of mistaking them for option names, and rejects a command line
    with one error line instead of a usage block.  Subparsers share the
    class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="taxicassini",
        description="Taxicab Cassini curves: construct, classify, render, verify.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="report instance facts and piece inventory")
    _add_instance_flags(info)
    info.add_argument("--r", help="radius parameter")
    info.set_defaults(func=cmd_info)

    classify = subparsers.add_parser("classify", help="classify a point against the curve")
    _add_instance_flags(classify)
    classify.add_argument("--r", help="radius parameter")
    classify.add_argument("--x", help="probe point as X,Y")
    classify.add_argument("--tol", type=float, default=1e-9, help="On-band tolerance")
    classify.set_defaults(func=cmd_classify)

    render = subparsers.add_parser("render", help="render curves to an SVG file")
    _add_instance_flags(render)
    render.add_argument("--r", help="radius value or comma list for a nested family")
    render.add_argument("--out", required=True, help="output SVG path")
    render.add_argument("--samples", type=int, default=64, help="polyline samples per piece")
    render.add_argument("--overlay-oracle", action="store_true", help="overlay grid contour")
    render.add_argument("--grid", type=int, default=256, help="oracle grid nodes per side")
    render.set_defaults(func=cmd_render)

    verify = subparsers.add_parser("verify", help="run seeded verification campaigns")
    verify.add_argument("--modes", help=f"comma list from: {', '.join(_ALL_MODES)}")
    verify.add_argument("--trials", type=int, help="override per-mode trial count")
    verify.add_argument("--seed", type=int, default=42, help="campaign seed")
    verify.add_argument("--grid", type=int, default=100, help="identity grid nodes per side")
    verify.add_argument("--band", type=float, default=1e-9, help="boundary skip band")
    verify.add_argument("--samples", type=int, default=64, help="curve samples per trial")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
