"""Command-line behavior: reports, rendering, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from taxicassini import cli
from taxicassini.cli import main

FIXTURES = "fixtures/instances.jsonl"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_reference_instance(self, capsys):
        code, out, err = run(capsys, "info", "--p", "4,1", "--q", "-4,-1", "--r", "6")
        assert code == 0
        assert "topology: OneCurve" in out
        assert "r_star: 5.0" in out
        assert "g_plus: (-1.0, -4.0)" in out
        assert "curves: 1" in out
        assert out.count("kind=segment") == 4
        assert out.count("kind=arc") == 4

    def test_pinched_vertex_instance(self, capsys):
        code, out, _ = run(capsys, "info", "--p", "5,0", "--q", "-5,0", "--r", "5")
        assert code == 0
        assert "topology: PinchedVertex" in out
        assert "curves: 2" in out

    @pytest.mark.parametrize(
        "p,q,r,line",
        [
            # The end's x1 is stored as -1.1e-16; its exact value is q1 = 0.
            (
                "1.3,-0.2", "0,1.7", "0.6",
                "curve 2 piece 1: region=S_q_c2 kind=arc "
                "start=(-0.108801, 1.700000) end=(0.000000, 1.583240)",
            ),
            # The start's x1 is stored as -5.6e-17; its exact value is p1 = 0.
            (
                "-0,-1", "-0.9,2.8", "1.1",
                "curve 1 piece 2: region=R kind=segment "
                "start=(0.000000, -0.726656) end=(-0.273344, -1.000000)",
            ),
        ],
    )
    def test_endpoint_rounded_to_zero_prints_no_sign(self, capsys, p, q, r, line):
        code, out, _ = run(capsys, "info", "--p", p, "--q", q, "--r", r)
        assert code == 0
        assert line in out.splitlines()
        assert "-0.000000" not in out

    def test_small_taxicab_circle(self, capsys):
        # Each side is 2e-13 long in L1; only a side whose ends coincide drops.
        code, out, err = run(capsys, "info", "--p", "0,0", "--q", "0,0", "--r", "1e-13")
        assert (code, err) == (0, "")
        assert "topology: TaxicabCircle" in out
        assert "curve 1 pieces: 4" in out.splitlines()

    def test_circle_below_float_resolution_is_one_error_line(self, capsys):
        # Every vertex rounds onto the center 1e6: a domain error, exit 2.
        code, out, err = run(capsys, "info", "--p", "1e6,1e6", "--q", "1e6,1e6", "--r", "1e-11")
        assert (code, out) == (2, "")
        assert err == (
            "error: CassiniSpec(p=Point(x1=1000000.0, x2=1000000.0),"
            " q=Point(x1=1000000.0, x2=1000000.0), r=1e-11), loop 1 of 1: r = 1e-11 is below"
            " the float resolution at its coordinates: every piece rounds onto one point,"
            " or an arc's end onto its center's line\n"
        )

    def test_lobes_below_float_resolution_are_one_error_line(self, capsys):
        # Lobes about (+-4, +-1) far below an ulp across: the message that
        # taxicab circles give, exit 2.
        code, out, err = run(capsys, "info", "--p", "4,1", "--q", "-4,-1", "--r", "1e-160")
        assert (code, out) == (2, "")
        assert err == (
            "error: CassiniSpec(p=Point(x1=4.0, x2=1.0), q=Point(x1=-4.0, x2=-1.0), r=1e-160),"
            " loop 1 of 2: r = 1e-160 is below the float resolution at its coordinates: every"
            " piece rounds onto one point, or an arc's end onto its center's line\n"
        )

    def test_curve_at_scale_1e_13_keeps_every_piece(self, capsys):
        # The reference instance scaled by 1e-13: every piece is kept, and
        # all print as 0.000000 at six decimals.
        code, out, err = run(
            capsys, "info", "--p", "4e-13,1e-13", "--q", "-4e-13,-1e-13", "--r", "6e-13"
        )
        assert (code, err) == (0, "")
        assert "topology: OneCurve" in out
        assert "curve 1 pieces: 8" in out.splitlines()

    def test_degenerate_point_pair(self, capsys):
        code, out, _ = run(capsys, "info", "--p", "1,1", "--q", "1,1", "--r", "0")
        assert code == 0
        assert "topology: PointPair" in out
        assert "curves: 0" in out

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "info", "--p", "zz", "--q", "0,0", "--r", "1")
        assert code == 2
        assert "error" in err

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "info", "--p", "1,1")
        assert code == 2

    def test_assembly_error_is_one_line(self, capsys):
        # A valid spec whose lobes the construction cannot assemble yet: a
        # one-line error and exit 2, not a traceback and the mismatch code 1.
        code, out, err = run(capsys, "info", "--p", "1e6,0", "--q", "-1e6,0", "--r", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_assembly_error_names_the_spec_and_the_loop(self, capsys):
        code, out, err = run(capsys, "info", "--p", "1e6,0", "--q", "-1e6,0", "--r", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: CassiniSpec(p=Point(x1=1000000.0, x2=0.0), q=Point(x1=-1000000.0, x2=0.0),"
            " r=1.0), loop 1 of 2: piece 0 sample Point(x1=1000000.0, x2=5.00003807246685e-07)"
            " misses the level set by 7.6144936200783775e-06\n"
        )

    def test_radius_whose_square_overflows_rejected(self, capsys):
        # r^2 = inf used to pass validation with NaN residuals and exit 0.
        code, out, err = run(capsys, "info", "--p", "1e200,0", "--q", "-1e200,0", "--r", "1e200")
        assert code == 2
        assert out == ""
        assert err == "error: radius parameter squared must be finite, got r = 1e+200\n"

    def test_overflowing_foci_rejected(self, capsys):
        # p - q and the guide complements' sums overflow; the error used to
        # name (0.0, -inf), a coordinate of g_plus the user never gave.
        code, out, err = run(capsys, "info", "--p", "1e308,0", "--q", "-1e308,0", "--r", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: foci Point(x1=1e+308, x2=0.0) and Point(x1=-1e+308, x2=0.0) are too"
            " large for r = 1.0: 4 (|p1| + |p2| + |q1| + |q2| + r) must be finite\n"
        )

    def test_waist_offset_beyond_1e154_builds(self, capsys):
        # r* = 1e155: the waist offset's product (r* - r)(r* + r) overflows,
        # and the error used to name the junction (1e+155, inf).
        code, out, err = run(capsys, "info", "--p", "1e155,0", "--q", "-1e155,0", "--r", "1e154")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert "curves: 2" in lines
        assert "curve 1 pieces: 4" in lines and "curve 2 pieces: 4" in lines

    def test_waist_offset_below_float_resolution_is_one_error_line(self, capsys):
        # The error used to name (inf, -1.5e+307), a junction the user never gave.
        code, out, err = run(capsys, "info", "--p", "1.5e307,-1.5e307", "--q", "0,0", "--r", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: CassiniSpec(p=Point(x1=1.5e+307, x2=-1.5e+307), q=Point(x1=0.0, x2=0.0),"
            " r=1.0), loop 1 of 2: r = 1.0 is below the float resolution at its coordinates:"
            " every piece rounds onto one point, or an arc's end onto its center's line\n"
        )

    def test_flat_circle_is_one_error_line(self, capsys):
        # The circle's x2 offsets round away at 1e16, so it lies flat; this
        # was an AssemblyError "piece 0 sample ... misses the level set".
        code, out, err = run(capsys, "info", "--p", "0,1e16", "--q", "0,1e16", "--r", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: CassiniSpec(p=Point(x1=0.0, x2=1e+16), q=Point(x1=0.0, x2=1e+16), r=1.0),"
            " loop 1 of 1: r = 1.0 is below the float resolution at its coordinates: every"
            " piece rounds onto one point, or an arc's end onto its center's line\n"
        )


class TestClassify:
    @pytest.mark.parametrize(
        "x,word",
        [("0,0", "Inside"), ("100,100", "Outside"), ("4,1", "Inside")],
    )
    def test_words(self, capsys, x, word):
        code, out, _ = run(capsys, "classify", "--p", "4,1", "--q", "-4,-1", "--r", "6", "--x", x)
        assert code == 0
        assert out.strip() == word

    def test_on_with_tolerance(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--p", "4,1", "--q", "-4,-1", "--r", "5", "--x", "0,0"
        )
        assert code == 0
        assert out.strip() == "On"

    def test_requires_probe_point(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "4,1", "--q", "-4,-1", "--r", "5")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, capsys, tol):
        # The origin is Inside; a NaN band used to make it Outside and an
        # infinite one made every point On.
        code, out, err = run(
            capsys, "classify", "--p", "4,1", "--q", "-4,-1", "--r", "6", "--x", "0,0", "--tol", tol
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["0", "1e-9"])
    def test_radius_whose_square_overflows_rejected(self, capsys, tol):
        # With r^2 = inf, tol 0 made the band NaN and called the focus
        # itself Outside; the default tol called it On.
        code, out, err = run(
            capsys, "classify", "--p", "1e200,0", "--q", "-1e200,0", "--r", "1e200",
            "--x", "1e200,0", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert err == "error: radius parameter squared must be finite, got r = 1e+200\n"

    def test_negative_value_without_leading_digit(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--p", "4,1", "--q", "-4,-1", "--r", "6", "--x", "-.5,0"
        )
        assert code == 0
        assert out.strip() == "Inside"

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "-inf"), ("--p", "-inf,0"), ("--x", "-NaN,0")],
    )
    def test_non_finite_negative_values_are_values(self, capsys, flag, value):
        # Taken as values, not option names, so the error is the one-line
        # rejection of the value rather than a usage message.
        argv = {"--p": "4,1", "--q": "-4,-1", "--r": "6", "--x": "0,0", flag: value}
        code, out, err = run(capsys, "classify", *(t for kv in argv.items() for t in kv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRender:
    def test_writes_svg(self, capsys, tmp_path):
        out_path = tmp_path / "curve.svg"
        code, _, _ = run(
            capsys, "render", "--p", "8,3", "--q", "-8,-3", "--r", "16", "--out", str(out_path)
        )
        assert code == 0
        payload = out_path.read_bytes()
        assert payload.startswith(b"<?xml")
        assert b"</svg>" in payload

    def test_batch_radii_render_nested_family(self, capsys, tmp_path):
        out_path = tmp_path / "family.svg"
        code, _, _ = run(
            capsys,
            "render", "--p", "4,1", "--q", "-4,-1", "--r", "3,5,6", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        # Two loops for r=3, two for r=5, one for r=6.
        assert text.count("<path") == 5

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["render", "--p", "4,1", "--q", "-4,-1", "--r", "3,5,6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_overlay_oracle_layer(self, capsys, tmp_path):
        out_path = tmp_path / "overlay.svg"
        code, _, _ = run(
            capsys,
            "render", "--p", "4,1", "--q", "-4,-1", "--r", "6",
            "--out", str(out_path), "--overlay-oracle", "--grid", "64",
        )
        assert code == 0
        assert 'id="oracle"' in out_path.read_text()

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--p", "4,1", "--q", "-4,-1", "--r", "3,5,6"],
                "5012dfbe2f81ea4a7a78764732f7fea579ac5de658d15ddb1eb6e2cef8761c53",
            ),
            (
                ["--p", "8,3", "--q", "-8,-3", "--r", "16"],
                "4893d7b81aaa0267be4e4cca29685a71ffcfe9aa50fbf7538cbf6456de9794e7",
            ),
            (
                ["--p", "4,1", "--q", "-4,-1", "--r", "6"],
                "1c6fc1f99aaaeb19b35c9801a4d9596ee9e954d4820d73fd16dca619b30af44a",
            ),
            (
                ["--p", "8,3", "--q", "-8,-3", "--r", "16", "--overlay-oracle"],
                "e51a3063aaefeaa6160b8676607dc9bc610a11029cdcafed64e70adf40b66fcd",
            ),
            (
                ["--p", "4,1", "--q", "-4,-1", "--r", "5", "--overlay-oracle"],
                "f69f0be428f1a7df218b156a2754eb3a9fe16d60fb05ba0ad372901f9a19c0b3",
            ),
        ],
        ids=["family", "wide", "single", "wide-oracle", "pinch-oracle"],
    )
    def test_golden_digest(self, capsys, tmp_path, flags, digest):
        # The criterion-9 figures and the wide one with the oracle overlay,
        # pinned byte for byte (the digests of perfbench/svg_digests.json),
        # and the pinch at r = r* with its overlay, whose grid has nodes
        # exactly on the curve.
        out_path = tmp_path / "figure.svg"
        code, _, _ = run(capsys, "render", *flags, "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_overlay_oracle_beyond_2_53(self, capsys, tmp_path):
        out_path = tmp_path / "huge.svg"
        code, _, err = run(
            capsys,
            "render", "--p", "0,0", "--q", "0,0", "--r", "1e16",
            "--overlay-oracle", "--grid", "257", "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        assert 'id="oracle"' in out_path.read_text()

    def test_io_failure_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "render", "--p", "4,1", "--q", "-4,-1", "--r", "6",
            "--out", "/nonexistent-dir/out.svg",
        )
        assert code == 3
        assert "error" in err

    def test_assembly_error_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "lobe.svg"
        code, out, err = run(
            capsys, "render", "--p", "1e6,0", "--q", "-1e6,0", "--r", "1", "--out", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    def test_overflowing_foci_named_as_given(self, capsys, tmp_path):
        # The spec's check runs before the viewport's midpoint, whose sum
        # would overflow and name a point the user never gave.
        out_path = tmp_path / "x.svg"
        code, out, err = run(
            capsys, "render", "--p", "1.7e308,0", "--q", "1.7e308,0", "--r", "1",
            "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: foci Point(x1=1.7e+308, x2=0.0) and Point(x1=1.7e+308, x2=0.0)"
            " are too large for r = 1.0: 4 (|p1| + |p2| + |q1| + |q2| + r) must be finite\n"
        )
        assert not out_path.exists()

    def test_zero_radius_rejected(self, capsys):
        code, _, err = run(
            capsys, "render", "--p", "4,1", "--q", "-4,-1", "--r", "0", "--out", "/tmp/x.svg"
        )
        assert code == 2


class TestInstanceFiles:
    def test_label_lookup(self, capsys):
        code, out, _ = run(
            capsys, "info", "--instances", FIXTURES, "--label", "shared-line-pinch"
        )
        assert code == 0
        assert "topology: PinchedVertex" in out

    def test_single_record_needs_no_label(self, capsys, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({"label": "solo", "p": [4, 1], "q": [-4, -1], "r": 6}) + "\n")
        code, out, _ = run(capsys, "info", "--instances", str(path))
        assert code == 0
        assert "topology: OneCurve" in out

    def test_multi_record_requires_label(self, capsys):
        code, _, err = run(capsys, "info", "--instances", FIXTURES)
        assert code == 2
        assert "--label" in err

    def test_unknown_label(self, capsys):
        code, _, err = run(capsys, "info", "--instances", FIXTURES, "--label", "nope")
        assert code == 2

    def test_duplicate_labels_rejected(self, capsys, tmp_path):
        path = tmp_path / "dup.jsonl"
        record = json.dumps({"label": "twin", "p": [0, 0], "q": [1, 1], "r": 1})
        path.write_text(record + "\n" + record + "\n")
        code, _, err = run(capsys, "info", "--instances", str(path), "--label", "twin")
        assert code == 2
        assert "duplicate" in err

    def test_conflicting_sources_rejected(self, capsys):
        code, _, err = run(
            capsys, "info", "--instances", FIXTURES, "--label", "circle", "--p", "0,0"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["info"],
            ["classify", "--x", "0,0"],
            ["render", "--out", "unwritten.svg"],
        ],
        ids=["info", "classify", "render"],
    )
    def test_label_without_instances_rejected(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, *command, "--p", "4,1", "--q", "-4,-1", "--r", "6", "--label", "circle"
        )
        assert (code, out, err) == (2, "", "error: --label needs --instances\n")
        assert not (tmp_path / "unwritten.svg").exists()

    def test_malformed_json(self, capsys, tmp_path):
        # The error names the record's line in the file, blank lines counted.
        path = tmp_path / "bad.jsonl"
        path.write_text("\n\n{not json}\n")
        code, out, err = run(capsys, "info", "--instances", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad instance record on line 3 of {str(path)!r}: ")
        assert err.count("\n") == 1

    def test_deeply_nested_record(self, capsys, tmp_path):
        # json.loads raises RecursionError on nesting this deep.
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 200_000 + "]" * 200_000 + "\n")
        code, out, err = run(capsys, "info", "--instances", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad instance record on line 1 of {str(path)!r}: ")
        assert err.count("\n") == 1

    def test_undecodable_byte_names_its_line(self, capsys, tmp_path):
        # The UTF-8 decode error used to reach the user without the file.
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(b'\n{"label": "\xff", "p": [4, 1], "q": [-4, -1], "r": 6}\n')
        code, out, err = run(capsys, "info", "--instances", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad instance record on line 2 of {str(path)!r}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1

    def test_repeated_key_rejected(self, capsys, tmp_path):
        # json.loads keeps the last value, so this record used to load with r = 2.
        path = tmp_path / "repeat.jsonl"
        path.write_text('{"label": "twice", "p": [4, 1], "q": [-4, -1], "r": 1, "r": 2}\n')
        code, out, err = run(capsys, "info", "--instances", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: bad instance record on line 1 of {str(path)!r}: repeated key 'r'\n"

    @pytest.mark.parametrize(
        "record,reason",
        [
            ("[4, 1]", "instance record is not an object: '[4, 1]'"),
            ('{"label": "x", "p": [4, 1]}', "instance record missing fields ['q', 'r']"),
            (
                '{"label": "", "p": [4, 1], "q": [-4, -1], "r": 6}',
                "instance label must be nonempty text",
            ),
            ('{"label": "ok", "p": [0, 0], "q": [1, 1], "r": 1}', "duplicate instance label 'ok'"),
            (
                '{"label": "x", "p": [4], "q": [-4, -1], "r": 6}',
                "instance point must be [x1, x2], got [4]",
            ),
            (
                '{"label": "x", "p": [4, 1], "q": [-4, -1], "r": "6"}',
                "instance 'x' r must be a finite number, got '6'",
            ),
            ('{"label": "x", "p": [4, 1], "q": [-4, -1], "r": -1}', "instance 'x' has negative r"),
        ],
        ids=["not-object", "missing", "label", "duplicate", "point", "number", "negative"],
    )
    def test_rejected_record_names_its_line(self, capsys, tmp_path, record, reason):
        # A valid record and a blank line come first, so the rejected one is on line 3.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"label": "ok", "p": [4, 1], "q": [-4, -1], "r": 6}\n\n' + record + "\n")
        code, out, err = run(capsys, "info", "--instances", str(path), "--label", "ok")
        assert (code, out) == (2, "")
        assert err == f"error: bad instance record on line 3 of {str(path)!r}: {reason}\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "info", "--instances", "/no/such/file.jsonl")
        assert code == 2

    @pytest.mark.parametrize(
        "field,value",
        [
            ("p", [None, 0]),
            ("p", ["4", 1]),
            ("q", [[-4], -1]),
            ("p", [True, 1]),
            ("r", None),
            ("r", "6"),
            ("r", [6]),
            ("r", True),
            ("r", 10**400),
            ("p", [float("nan"), 0]),
        ],
    )
    def test_bad_number_fields_rejected(self, capsys, tmp_path, field, value):
        record = {"label": "bad", "p": [4, 1], "q": [-4, -1], "r": 6}
        record[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        code, out, err = run(capsys, "info", "--instances", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_fixtures_cover_every_topology_class(self):
        labels = set()
        with open(FIXTURES, "r", encoding="utf-8") as handle:
            for line in handle:
                labels.add(json.loads(line)["label"])
        assert {
            "family-sub",
            "family-critical",
            "family-super",
            "strips-wide",
            "shared-line-pinch",
            "circle",
        } <= labels


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--modes", "residual,union-of-intersections",
            "--trials", "5", "--grid", "20",
        )
        assert code == 0
        assert "mode=residual trials=5 failures=0" in out
        assert "mode=union-of-intersections trials=2000 failures=0" in out
        assert out.strip().endswith("overall: pass")

    def test_report_is_deterministic(self, capsys):
        args = ["verify", "--modes", "residual,cross-equalities", "--trials", "4", "--grid", "16"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_boundary_and_topology_modes(self, capsys):
        code, out, _ = run(capsys, "verify", "--modes", "boundary")
        assert code == 0
        assert out.startswith("mode=boundary trials=514 ")
        # The boundary campaign runs its fixed suite whatever --trials says.
        assert run(capsys, "verify", "--modes", "boundary", "--trials", "3") == (0, out, "")

    def test_unknown_mode(self, capsys):
        code, _, err = run(capsys, "verify", "--modes", "bogus")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("flags", [["--modes", ","], ["--modes="]], ids=["comma", "empty"])
    def test_no_mode_rejected(self, capsys, flags):
        # No mode would run no campaign and still report a pass.
        code, out, err = run(capsys, "verify", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: --modes names no mode") and err.count("\n") == 1
        assert "residual" in err and "boundary" in err

    def test_bad_config_values(self, capsys):
        assert run(capsys, "verify", "--modes", "residual", "--trials", "0")[0] == 2
        assert run(capsys, "verify", "--modes", "residual", "--grid", "8")[0] == 2
        assert run(capsys, "verify", "--modes", "residual", "--band", "-1")[0] == 2
        # A NaN band skipped nothing and an infinite one skipped every point
        # while still reporting a pass.
        for band in ("nan", "inf"):
            code, out, err = run(capsys, "verify", "--modes", "cross-subsets", "--band", band)
            assert code == 2
            assert out == ""
            assert err.startswith("error: --band must be finite") and err.count("\n") == 1

    # Checked before any campaign runs, so a bad value prints no partial
    # report and the message names the flag.
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--modes", "topology,boundary", "--samples", "4"], "error: --samples must be at least 8, got 4\n"),
            (["--seed", "-3"], "error: --seed must be nonnegative, got -3\n"),
        ],
        ids=["samples", "seed"],
    )
    def test_rejected_before_any_campaign(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", *flags)
        assert (code, out, err) == (2, "", message)


# Full reports of two seeded campaigns, pinned so that any change to a
# count, a skip or a worst margin shows.  The second run's band makes some
# points fall in the skip band.
GOLDEN_VERIFY = [
    (
        ["--seed", "7", "--trials", "20"],
        """\
mode=residual trials=20 failures=0 skipped=0 worst=3.030460e-14
mode=union-of-intersections trials=200000 failures=0 skipped=0 worst=8.972222e-05
mode=intersection-of-unions trials=200000 failures=0 skipped=0 worst=8.972222e-05
mode=cross-subsets trials=200000 failures=0 skipped=0 worst=8.972222e-05
mode=cross-equalities trials=200000 failures=0 skipped=0 worst=8.972222e-05
mode=topology trials=20 failures=0 skipped=0 worst=inf
mode=boundary trials=514 failures=0 skipped=0 worst=inf
overall: pass
""",
    ),
    (
        [
            "--seed", "7", "--trials", "20",
            "--modes", "union-of-intersections,cross-equalities", "--band", "1e-4",
        ],
        """\
mode=union-of-intersections trials=200000 failures=0 skipped=4 worst=1.311390e-04
mode=cross-equalities trials=200000 failures=0 skipped=4 worst=1.311390e-04
overall: pass
""",
    ),
    (
        [
            "--seed", "7", "--trials", "5",
            "--modes", "cross-equalities,residual,union-of-intersections,cross-equalities",
        ],
        """\
mode=cross-equalities trials=50000 failures=0 skipped=0 worst=8.972222e-05
mode=residual trials=5 failures=0 skipped=0 worst=3.030460e-14
mode=union-of-intersections trials=50000 failures=0 skipped=0 worst=8.972222e-05
mode=cross-equalities trials=50000 failures=0 skipped=0 worst=8.972222e-05
overall: pass
""",
    ),
]


class TestGoldenVerify:
    @pytest.mark.parametrize("flags,report", GOLDEN_VERIFY)
    def test_report(self, capsys, flags, report):
        code, out, err = run(capsys, "verify", *flags)
        assert code == 0
        assert err == ""
        assert out == report


# SHA-256 of the full info report of each fixture: the frame, the
# standardizing isometry and every curve piece's region, kind and endpoints.
GOLDEN_INFO = [
    ("family-sub", "378febc40054e95d188b53e6f84cbfc0e866eb9235195945742ce21dbf9e33ca"),
    ("family-critical", "28fb531dfa6e3e381888702228c44cdaf5d68156424c92a8ffc96fe557b749a6"),
    ("family-super", "0393f0d3504ef8e1d534c6fe11acf7f1dbee87843c48557bf1f0db5c7fb92365"),
    ("strips-wide", "5a6f8e2ece9fbe40208720edda3caf53365f7b5bf9255b7cb84cc1bcab370d31"),
    ("shared-line-pinch", "1eeefa0ecb7ddb3265ad655a7688c0f89263c93f3d1e20a685bd2e707dc8cc5e"),
    ("circle", "d2fbc64f5eb23246d0df5b8d883ea02c6e8c08734494fb9fd57a275b56ee0be6"),
]


class TestGoldenInfo:
    @pytest.mark.parametrize("label,digest", GOLDEN_INFO)
    def test_report(self, capsys, label, digest):
        code, out, err = run(capsys, "info", "--instances", FIXTURES, "--label", label)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEntrypoints:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "taxicassini.cli", "classify",
             "--p", "4,1", "--q", "-4,-1", "--r", "6", "--x", "0,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Inside"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--p", "4,1", "--q", "-4,-1", "--r", "6", "--x", "0,0", "--tol", "abc"],
            ["verify", "--seed", "x"],
            ["verify", "--grid", "1.5"],
            ["render", "--p", "4,1", "--q", "-4,-1", "--r", "6"],
            ["frobnicate"],
            ["render", "--p", "1,1", "--frobnicate"],
            [],
        ],
        ids=["tol", "seed", "grid", "no-out", "unknown-command", "unknown-option", "no-command"],
    )
    def test_rejected_command_line_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_keeps_its_output(self, capsys):
        code, out, err = run(capsys, "verify", "-h")
        assert (code, err) == (0, "")
        assert out.startswith("usage: taxicassini verify")


class TestOutOfMemory:
    # A request too large for memory is an input error, not a mismatch (1).
    # The allocations are stood in for: the tests allocate nothing large.
    @staticmethod
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 26.8 GiB for an array")

    def test_verify(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_identity_campaigns", self.out_of_memory)
        code, out, err = run(
            capsys, "verify", "--modes", "union-of-intersections", "--trials", "1", "--grid", "60000"
        )
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 26.8 GiB for an array\n"

    def test_render_writes_nothing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "render_svg", self.out_of_memory)
        out_path = tmp_path / "x.svg"
        code, out, err = run(
            capsys,
            "render", "--p", "1,0", "--q", "-1,0", "--r", "2", "--overlay-oracle",
            "--grid", "2000000", "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out_path.exists()
