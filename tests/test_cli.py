import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from oddgon import cli, derivation, surface
from oddgon.cli import main
from oddgon.flow import MAX_CROSSINGS, trace_from_edge
from oddgon.geometry import vsub
from oddgon.render import MAX_DRAWN_CROSSINGS
from oddgon.shear import build_vertex_guide
from oddgon.surface import UPPER, build_surface

# an --out path in a directory that does not exist
MISSING_OUT = str(Path(__file__).resolve().parent / "no-such-dir" / "x.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_surface_json(capsys):
    code, data = run_json(capsys, "surface", "--n", "7")
    assert code == 0
    assert data["n"] == 7
    assert len(data["polygons"]["upper"]) == 7


def test_derive_text_fixture(capsys):
    code, out = run_cli(capsys, "derive", "--seq", "BECE", "--cyclic", "--n", "5")
    assert code == 0
    assert out.strip() == "BC"


def test_derive_empty_status(capsys):
    code, out = run_cli(capsys, "derive", "--seq", "ABC", "--cyclic", "--n", "5")
    assert code == 0
    assert out.strip() == ""
    code, data = run_json(capsys, "derive", "--seq", "ABC", "--cyclic", "--n", "5", "--format", "json")
    assert code == 0
    assert data["status"] == "empty"
    assert data["derived"] == ""
    code, data = run_json(capsys, "derive", "--seq", "", "--method", "diagram", "--format", "json")
    assert code == 0
    assert data["status"] == "empty"


def test_derive_method_diagram_agrees(capsys):
    code, out = run_cli(capsys, "derive", "--seq", "BECE", "--cyclic", "--method", "diagram")
    assert code == 0
    assert out.strip() == "BC"


def test_derive_method_diagram_invalid_path_is_failure(capsys):
    code, out = run_cli(capsys, "derive", "--seq", "ACAC", "--cyclic", "--method", "diagram")
    assert code == 1
    assert json.loads(out)["error"] == "invalid-path"


def test_trace_periodic_orbit(capsys):
    code, data = run_json(
        capsys, "trace", "--edge", "S2", "--t", "0.55", "--theta", str(math.pi / 10)
    )
    assert code == 0
    assert data["letters"] == list("BECE")
    assert data["periodic"] is True


def test_trace_corner_hit_is_failure(capsys):
    s = build_surface(5)
    p = s.edge_seg(UPPER, 2).point_at(0.5)
    d = vsub(s.vertices(UPPER)[3], p)
    theta = math.atan2(d[1], d[0])
    assert str(theta) == "2.1225616175277833"
    code, data = run_json(capsys, "trace", "--edge", "S2", "--t", "0.5", "--theta", str(theta))
    assert code == 1
    assert data["error"] == "corner-hit"
    assert data["detail"].startswith("trajectory within corner tolerance at")
    # exact, so the failing trace can be run again
    assert data["theta"] == theta
    assert data["start"] == {"polygon": UPPER, "point": list(p)}


def test_derive_geometric(capsys):
    code, data = run_json(
        capsys, "derive-geometric", "--edge", "S2", "--t", "0.55", "--theta", str(math.pi / 10)
    )
    assert code == 0
    assert data["derived"] == "BC"
    assert data["cyclic"] is True


def test_diagram_stages(capsys):
    code, data = run_json(capsys, "diagram", "--stage", "arrows")
    assert code == 0
    assert len(data["arrows"]) == 8
    code, data = run_json(capsys, "diagram", "--stage", "primed")
    assert code == 0
    assert data["stage"] == "primed"
    assert len(data["arrows"]) == 12
    code, out = run_cli(capsys, "diagram", "--stage", "dual", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_arrows_and_augmented_stages_trace_no_sample(capsys, monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("traced a sample")

    monkeypatch.setattr(derivation, "trace_from_edge", no_trace)
    for stage in ("arrows", "augmented"):
        code, data = run_json(capsys, "diagram", "--n", "11", "--stage", stage)
        assert code == 0
        assert data["stage"] == stage
    with pytest.raises(AssertionError, match="traced a sample"):
        main(["diagram", "--n", "11", "--stage", "dual"])


def test_every_diagram_stage_raises_on_a_mislabeled_augmented_arrow(capsys, monkeypatch):
    # B -> E clipped as crossing u1, E -> B's copy of the diagonal, not l1
    clipped = derivation._aux_sequence_for_chord

    def swapped(surface, polygon, a, b):
        return tuple("u1" if name == "l1" else name for name in clipped(surface, polygon, a, b))

    monkeypatch.setattr(derivation, "_aux_sequence_for_chord", swapped)
    for stage in ("arrows", "augmented", "dual", "primed"):
        with pytest.raises(AssertionError, match="clipped augmented labels differ from the closed form"):
            main(["diagram", "--n", "5", "--stage", stage, "--format", "dot"])
    assert capsys.readouterr().out == ""


def test_guide_point_count(capsys):
    code, data = run_json(capsys, "guide", "--n", "9")
    assert code == 0
    assert len(data["points"]) == 4 * ((9 - 1) // 2 + 1)


def test_verify_passes(capsys):
    code, data = run_json(capsys, "verify", "--n", "5", "--checks", "moduli,reassembly", "--seed", "42")
    assert code == 0
    assert data["checks"]["moduli"]["pass"] is True
    assert data["checks"]["reassembly"]["pass"] is True
    assert data["precision_digits"] == 64


def test_verify_failure_exits_one(capsys):
    # a tolerance below float resolution must fail honestly
    code, data = run_json(capsys, "verify", "--n", "5", "--checks", "moduli", "--tol", "1e-20")
    assert code == 1
    assert data["checks"]["moduli"]["pass"] is False
    code, data = run_json(capsys, "verify", "--n", "5", "--checks", "reassembly", "--tol", "1e-20")
    assert code == 1
    assert data["checks"]["reassembly"]["pass"] is False


def test_verify_reports_a_check_whose_consistency_test_fails(capsys, monkeypatch):
    # a closed form that disagrees with the geometry fails the equivalence
    # check's build; the report still prints, with every check in it
    closed_form = derivation.closed_form_tables

    def flipped(n):
        aux_of, transitions = closed_form(n)
        key = ("A", "A", "B")
        return aux_of, {**transitions, key: "" if transitions[key] else "B"}

    monkeypatch.setattr(derivation, "closed_form_tables", flipped)
    code, data = run_json(capsys, "verify", "--n", "5", "--checks", "moduli,equivalence,torus", "--seed", "3")
    assert code == 1
    assert list(data["checks"]) == ["moduli", "equivalence", "torus"]
    assert data["checks"]["equivalence"] == {
        "pass": False,
        "error": "sampled primed content differs from the closed form: [(('A', 'A', 'B'), 'B', '')]",
    }
    assert data["checks"]["moduli"]["pass"] is True and data["checks"]["torus"]["pass"] is True


def test_verify_torus_compares_open_and_periodic_orbits(capsys, monkeypatch):
    cyclic_flags = []
    rule = cli.torus_derive_rule

    def recording_rule(word, cyclic=False):
        cyclic_flags.append(cyclic)
        return rule(word, cyclic=cyclic)

    monkeypatch.setattr(cli, "torus_derive_rule", recording_rule)
    code, data = run_json(capsys, "verify", "--checks", "torus")
    assert code == 0
    assert data["checks"]["torus"] == {"pass": True, "orbits_checked": 200, "failures": 0}
    assert True in cyclic_flags and False in cyclic_flags


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "7", "--checks", "identities,moduli,reassembly,equivalence,torus"],
        ["guide", "--n", "7"],
        ["render", "--n", "7", "--theta", "0.31", "--guide"],
        ["render", "--n", "7", "--what", "guide"],
    ],
)
def test_a_command_builds_one_surface(capsys, monkeypatch, argv):
    # every check, the guide and the render read the one Surface their command builds
    built = []
    init = surface.Surface.__init__

    def counted(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(surface.Surface, "__init__", counted)
    code, _ = run_cli(capsys, *argv)
    assert code == 0 and built == [7]


def test_verify_unknown_check_is_usage_error(capsys):
    code = main(["verify", "--checks", "bogus"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "--checks", ""], "--checks"),
        (["verify", "--checks", " , "], "--checks"),
        (["verify", "--checks", "moduli,moduli"], "--checks"),
        (["verify", "--checks", "moduli, reassembly ,moduli"], "--checks"),
        (["verify", "--tol", "nan"], "--tol"),
        (["verify", "--tol", "inf"], "--tol"),
        (["verify", "--tol", "0"], "--tol"),
        (["verify", "--tol=-1e-9"], "--tol"),
        (["trace", "--edge", "S2", "--t", "0.5", "--theta", "0.3", "--crossings", "-3"], "crossings"),
        (["trace", "--edge", "S2", "--t", "0.5", "--theta", "0.3", "--crossings", "0"], "crossings"),
        (["derive-geometric", "--edge", "S2", "--t", "0.5", "--theta", "0.3", "--crossings", "0"], "crossings"),
        (["render", "--theta", "0.3", "--crossings", "-1"], "crossings"),
        (["torus", "trace", "--slope", "1/3", "--crossings", "-1"], "crossings"),
        (["torus", "derive", "--slope", "1/3", "--crossings", "0"], "crossings"),
        (["torus", "trace", "--slope", "1/3", "--start", "0.1"], "start"),
        (["torus", "trace", "--slope", "1/3", "--start", "nan,0.5"], "start"),
        (["torus", "derive", "--theta", "0.3", "--start", "0.5,inf"], "start"),
        (["torus", "trace", "--slope", "x"], "--slope"),
        (["torus", "trace", "--slope", "1/x"], "--slope"),
        (["torus", "trace", "--slope", "nan"], "--slope"),
        (["torus", "derive", "--slope", "0/0"], "--slope"),
        (["torus", "trace", "--slope", "1/3", "--start", "a,b"], "--start"),
        (["derive", "--seq", "XYZ", "--n", "5"], "--seq"),
        (["derive", "--seq", "abz", "--n", "5"], "--seq"),
        (["derive", "--seq", "XYZ", "--n", "5", "--method", "diagram"], "--seq"),
        (["derive", "--seq", "ABF", "--cyclic", "--n", "5", "--format", "json"], "A..E"),
        (["derive", "--seq", "ABCDEFGH I", "--n", "9"], "A..I"),
        (["verify", "--n", "4", "--checks", "identities"], "odd integer from 5 to 25"),
        (["verify", "--n", "6", "--checks", "identities,torus"], "odd integer from 5 to 25"),
        (["verify", "--n", "3", "--checks", "torus"], "odd integer from 5 to 25"),
        (["surface", "--out", MISSING_OUT], "cannot write --out"),
        (["render", "--what", "guide", "--out", MISSING_OUT], "cannot write --out"),
        # the corner-hit and invalid-path error JSON go to --out too
        (["trace", "--edge", "S2", "--t", "0.5", "--theta", "2.1225616175277833", "--out", MISSING_OUT], "cannot write --out"),
        (["derive", "--seq", "ACAC", "--cyclic", "--method", "diagram", "--out", MISSING_OUT], "cannot write --out"),
        # more crossings than MAX_CROSSINGS: rejected before anything is traced
        (["trace", "--edge", "S2", "--t", "0.5", "--theta", "0.3", "--crossings", "10000000000"], "MAX_CROSSINGS = 2000000"),
        (["derive-geometric", "--edge", "S2", "--t", "0.5", "--theta", "0.3", "--crossings", "2000001"], "MAX_CROSSINGS"),
        (["render", "--theta", "0.3", "--crossings", "10000000000"], "MAX_CROSSINGS"),
        (["torus", "trace", "--theta", "0.5", "--crossings", "10000000000"], "MAX_CROSSINGS = 2000000"),
        (["torus", "derive", "--theta", "0.5", "--crossings", "2000001"], "MAX_CROSSINGS"),
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_torus_rule_via_cli(capsys):
    code, data = run_json(capsys, "torus", "derive", "--seq", "ABBB", "--cyclic")
    assert code == 0
    assert data["derived"] == "ABB"


def test_torus_geometric_via_cli(capsys):
    code, data = run_json(capsys, "torus", "derive", "--slope", "1/3")
    assert code == 0
    assert data["derived"] == "ABB"
    assert data["topology"] == "cyclic"


def test_torus_trace_via_cli(capsys):
    code, data = run_json(capsys, "torus", "trace", "--theta", "0.3", "--crossings", "12")
    assert code == 0
    assert set("".join(data["letters"])) <= {"A", "B"}


def test_torus_without_direction_is_usage_error(capsys):
    assert main(["torus", "trace"]) == 2


def test_render_writes_svg(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    code = main(["render", "--n", "5", "--theta", "0.31", "--aux", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text or "line" in text


def test_render_draws_every_segment_of_a_trajectory(capsys):
    # the BECE orbit's four segments, the closing one included
    code, svg = run_cli(capsys, "render", "--n", "5", "--theta", "0.3141592653589793")
    assert code == 0 and svg.count("<line") == 4
    # an open 60-crossing trace has one segment fewer than crossings
    code, svg = run_cli(capsys, "render", "--n", "5", "--theta", "0.31")
    assert code == 0 and svg.count("<line") == 59


def test_render_rejects_more_crossings_than_it_can_draw(capsys, monkeypatch):
    traced = []
    monkeypatch.setattr(cli, "trace_from_edge", lambda *args, **kwargs: traced.append(kwargs["max_crossings"]))
    assert MAX_DRAWN_CROSSINGS == 5 * 10**5
    assert main(["render", "--theta", "0.3", "--crossings", str(MAX_DRAWN_CROSSINGS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"MAX_DRAWN_CROSSINGS = {MAX_DRAWN_CROSSINGS}" in captured.err
    assert traced == []  # rejected before anything is traced
    # the bound is inclusive: at it, render traces (here a stub: no trajectory drawn)
    code, svg = run_cli(capsys, "render", "--theta", "0.3", "--crossings", str(MAX_DRAWN_CROSSINGS))
    assert code == 0 and svg.startswith("<svg") and traced == [MAX_DRAWN_CROSSINGS]


def test_the_crossing_cap_is_inclusive(capsys, pentagon):
    # a periodic orbit stops at its first return, so asking for the cap costs nothing
    assert MAX_CROSSINGS == 2 * 10**6
    assert trace_from_edge(pentagon, 2, 0.55, math.pi / 10, max_crossings=MAX_CROSSINGS).period == 4
    with pytest.raises(ValueError, match="MAX_CROSSINGS"):
        trace_from_edge(pentagon, 2, 0.55, math.pi / 10, max_crossings=MAX_CROSSINGS + 1)
    code, data = run_json(capsys, "torus", "trace", "--slope", "1/3", "--crossings", str(MAX_CROSSINGS))
    assert code == 0 and data["period"] == 4


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["torus", "trace", "--theta", "0.7014142135623731"], 64),
        (["trace", "--n", "9", "--edge", "3", "--t", "0.37", "--theta", "0.7"], 110),
    ],
)
def test_long_trace_output_is_written_as_it_is_encoded(tmp_path, argv, bound):
    # the JSON of an open trace is written chunk by chunk, never held as one
    # string, so the call's peak per crossing stays near the trace's own
    m, out = 5 * 10**4, tmp_path / "trace.json"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = main([*argv, "--crossings", str(m), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    data = json.loads(out.read_text())
    assert code == 0 and not data["periodic"] and len(data["letters"]) == m
    assert peak < bound * m, peak / m


@pytest.mark.parametrize("n", [5, 9, 25])
def test_the_equivalence_check_reads_no_seed(capsys, n):
    outs = []
    for seed in (0, 7):
        assert main(["verify", "--n", str(n), "--checks", "equivalence", "--seed", str(seed)]) == 0
        outs.append(capsys.readouterr().out)
    # the report echoes --seed; every other byte is the same
    assert f'\n  "seed": 0,\n' in outs[0]
    assert outs[0].replace('"seed": 0,', '"seed": 7,', 1) == outs[1]


def test_render_guide_overlay_adds_one_dot_per_guide_point(capsys):
    plain = run_cli(capsys, "render", "--n", "7", "--theta", "0.31")
    overlaid = run_cli(capsys, "render", "--n", "7", "--theta", "0.31", "--guide")
    assert plain[0] == overlaid[0] == 0
    points = len(build_vertex_guide(build_surface(7)))
    assert overlaid[1].count("<circle") == plain[1].count("<circle") + points


def test_usage_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["trace", "--edge", "Q", "--t", "0.5", "--theta", "0.1"]) == 2
    assert capsys.readouterr() == ("", "error: edge index 17 out of range for n=5\n")
    assert main(["surface", "--n", "27"]) == 2
    assert "from 5 to 25" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--edge", "S2", "--t", "0.5", "--theta", "nan"],
        ["trace", "--edge", "S2", "--t", "0.5", "--theta", "inf"],
        ["derive-geometric", "--edge", "S2", "--t", "0.5", "--theta", "nan"],
        ["torus", "trace", "--theta", "nan"],
        ["render", "--theta", "nan"],
    ],
)
def test_non_finite_theta_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "theta" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--delta", "1e-3"],
        ["guide", "--seed", "1"],
        ["torus", "derive", "--seq", "AB", "--n", "7"],
        ["trace", "--edge", "S2", "--t", "0.55", "--theta", "0.31", "--delta", "1e-9"],
        ["diagram", "--tol", "1e-6"],
        ["derive", "--seq", "BECE", "--cyclic", "--seed", "5", "--samples", "3", "--n", "9"],
        ["derive", "--seq", "BECE", "--method", "ksl", "--samples", "3"],
        ["diagram", "--stage", "arrows", "--seed", "2"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["render", "--what", "guide", "--edge", "S9", "--theta", "0.3"], ["--edge", "--theta"]),
        (["render", "--what", "guide", "--t", "0.4", "--crossings", "9"], ["--t", "--crossings"]),
        (["render", "--what", "guide", "--aux", "--primed", "--guide"], ["--aux", "--primed", "--guide"]),
        (["render", "--edge", "S3", "--t", "0.4"], ["--edge", "--t"]),
        (["render", "--crossings", "9"], ["--crossings"]),
        (["torus", "trace", "--slope", "1/3", "--cyclic"], ["--cyclic"]),
        (["torus", "derive", "--seq", "AB", "--start", "0.1,0.2"], ["--start"]),
        (["torus", "derive", "--seq", "AB", "--slope", "1/3", "--start", "0.5,0.5"], ["--slope", "--start"]),
        (["torus", "derive", "--seq", "AB", "--theta", "0.3", "--crossings", "9"], ["--theta", "--crossings"]),
        (["torus", "derive", "--slope", "1/3", "--cyclic"], ["--cyclic"]),
        (["torus", "trace", "--seq", "AB"], ["--seq"]),
        (["torus", "trace", "--slope", "1/3", "--theta", "0.5"], ["--theta"]),
        (["torus", "derive", "--slope", "1/3", "--theta", "0.5"], ["--theta"]),
    ],
)
def test_flags_one_mode_does_not_read_are_usage_errors(capsys, argv, flags):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for flag in flags:
        assert flag in captured.err


def test_seeded_runs_are_byte_identical(capsys):
    args = ["verify", "--n", "5", "--checks", "moduli,identities", "--seed", "9"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "oddgon.cli", "derive", "--seq", "BECE", "--cyclic", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "BC"
