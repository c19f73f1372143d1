"""Command-line entry point.

Exit codes: 0 success, 1 verification or computation failure, 2 usage error
(argparse's convention). All output is deterministic; `verify`'s for a fixed --seed.
`highprec`, which loads mpmath, and `render` are imported where they are read,
so a call that neither verifies nor renders loads neither.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .derivation import (
    InvalidPath,
    build_arrows_diagram,
    build_augmented_diagram,
    build_pipeline_diagrams,
    cyclic_normal_form,
    derive_via_diagrams,
    diagram_dot,
    diagram_json,
    ksl_cyclic,
    ksl_window,
    sandwich_equivalence_check,
)
from .flow import MAX_CROSSINGS, CornerHit, derive_geometric, trace_from_edge, trajectory_json
from .geometry import round_sig
from .shear import (
    build_vertex_guide,
    decompose_cylinders,
    identity_sum,
    telescoping_identity,
    verify_reassembly,
)
from .surface import build_surface, index_for_letter, surface_json
from .torus import torus_derive_geometric, torus_derive_rule, torus_trace


def _emit(chunks, out: str | None) -> None:
    """Write the strings `chunks` and then a newline, which no output ends with, to stdout or to `out`."""
    if not out:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
            fh.write("\n")
    except OSError as e:
        raise ValueError(f"cannot write --out {out}: {e.strerror}") from e


def _emit_json(obj, out: str | None) -> None:
    # written chunk by chunk as the encoder makes them: a long trace's JSON is never one string
    _emit(json.JSONEncoder(indent=2).iterencode(obj), out)


def _emit_derived(word: str, cyclic: bool, method: str, derived: str, out: str | None) -> None:
    _emit_json(
        {
            "input": word,
            "topology": "cyclic" if cyclic else "window",
            "method": method,
            "derived": derived,
            "status": "empty" if derived == "" else "ok",
        },
        out,
    )


def _reject_unread(args, flags: tuple[str, ...], mode: str) -> None:
    """Usage error naming each of `flags` that was given although `mode` does not read it.

    Such flags default to None and get their value where they are read.
    """
    given = [f"--{f}" for f in flags if getattr(args, f) is not None]
    if given:
        raise ValueError(f"{mode} does not read {', '.join(given)}")


def _parse_theta(args) -> float:
    if args.slope is None:
        return args.theta
    try:
        nums = [float(v) for v in args.slope.split("/", 1)]
    except ValueError:
        nums = []
    if not nums or not all(map(math.isfinite, nums)) or nums == [0.0, 0.0]:
        raise ValueError(f"--slope must be a finite number or p/q other than 0/0, got {args.slope!r}")
    return math.atan2(*nums) if len(nums) == 2 else math.atan(nums[0])


# ---- subcommands -------------------------------------------------------------


def _cmd_surface(args) -> int:
    s = build_surface(args.n)
    _emit_json(surface_json(s), args.out)
    return 0


def _cmd_trace(args) -> int:
    s = build_surface(args.n)
    k = index_for_letter(args.edge)
    traj = trace_from_edge(s, k, args.t, args.theta, max_crossings=args.crossings)
    _emit_json(trajectory_json(traj), args.out)
    return 0


def _cmd_derive(args) -> int:
    s = build_surface(args.n)
    word = args.seq
    if not set(word) <= set(s.letters):
        raise ValueError(f"--seq letters must lie in A..{s.letters[-1]} for n={s.n}, got {word!r}")
    if args.method == "ksl":
        derived = ksl_cyclic(word) if args.cyclic else ksl_window(word)
    else:
        derived = derive_via_diagrams(build_pipeline_diagrams(s), word, cyclic=args.cyclic)
    if args.cyclic:
        derived = cyclic_normal_form(derived)
    if args.format == "json":
        _emit_derived(word, args.cyclic, args.method, derived, args.out)
    else:
        _emit([derived], args.out)
    return 0


def _cmd_derive_geometric(args) -> int:
    s = build_surface(args.n)
    k = index_for_letter(args.edge)
    traj = trace_from_edge(s, k, args.t, args.theta, max_crossings=args.crossings)
    result = derive_geometric(s, traj)
    derived = result.letters
    if result.cyclic:
        derived = cyclic_normal_form(derived)
    _emit_json(
        {
            "derived": derived,
            "cyclic": result.cyclic,
            "theta_normalized": round_sig(result.normalized_theta),
            "rotation_steps": result.rotation_steps,
            "trace": trajectory_json(traj),
        },
        args.out,
    )
    return 0


def _cmd_diagram(args) -> int:
    s = build_surface(args.n)
    # only the dual and primed stages need the pipeline's sampled traces
    if args.stage == "arrows":
        diagram = build_arrows_diagram(s)
    elif args.stage == "augmented":
        diagram = build_augmented_diagram(s)[0]
    else:
        diagram = build_pipeline_diagrams(s).stages[args.stage]
    if args.format == "dot":
        _emit([diagram_dot(diagram)], args.out)
    else:
        _emit_json(diagram_json(diagram), args.out)
    return 0


def _cmd_guide(args) -> int:
    s = build_surface(args.n)
    points = [
        {
            "polygon": p.polygon,
            "side": p.side,
            "level": p.level,
            "x": round_sig(p.x),
            "y": round_sig(p.y),
        }
        for p in build_vertex_guide(s)
    ]
    _emit_json({"n": args.n, "points": points}, args.out)
    return 0


def _check_moduli(args, surface) -> dict:
    from . import highprec

    ref = float(highprec.shear_coefficient(args.n))
    devs = [abs(c.modulus - ref) for c in decompose_cylinders(surface)]
    return {"pass": max(devs) <= args.tol, "max_dev": round_sig(max(devs), 3)}


def _check_reassembly(args, surface) -> dict:
    rep = verify_reassembly(surface, tol=args.tol)
    return {
        "pass": rep.passed,
        "max_residual": round_sig(rep.max_residual, 3),
        "worst_vertex": list(rep.worst),
        "y_bit_identical": rep.y_preserved,
    }


def _check_identities(args, surface) -> dict:
    import random

    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.01, math.pi - 0.01)
        k = rng.randrange(1, 13)
        lhs, rhs = telescoping_identity(theta, k)
        worst = max(worst, abs(lhs - rhs))
        lhs, rhs = identity_sum(theta, k)
        worst = max(worst, abs(lhs - rhs))
    return {"pass": worst < 1e-10, "max_dev": round_sig(worst, 3)}


def _check_equivalence(args, surface) -> dict:
    pipeline = build_pipeline_diagrams(surface)
    rep = sandwich_equivalence_check(pipeline)
    return {
        "pass": rep.passed,
        "cycles_checked": rep.cycles_checked,
        "windows_checked": rep.windows_checked,
        "failures": rep.failures[:5],
    }


def _check_torus(args, surface) -> dict:
    import random

    rng = random.Random(args.seed)
    checked = failures = 0
    while checked < 200:
        if checked % 2:  # slope p/q with 1 <= p < q <= 4: period p + q < 8, the least bound drawn
            q = rng.randrange(2, 5)
            theta = math.atan2(rng.randrange(1, q), q)
        else:
            theta = rng.uniform(0.02, math.pi / 4 - 0.02)
        start = (rng.random(), rng.random())
        try:
            traj = torus_trace(start, theta, max_crossings=rng.randrange(8, 40))
            geo = torus_derive_geometric(traj)
        except CornerHit:
            continue
        checked += 1
        if traj.periodic:
            ok = cyclic_normal_form(geo) == cyclic_normal_form(torus_derive_rule(traj.period_word, cyclic=True))
        else:
            rule = torus_derive_rule(traj.letters)
            rp, gp = rule.split("A"), geo.split("A")
            ok = (
                len(rp) == len(gp)
                and [len(x) for x in rp[1:-1]] == [len(x) for x in gp[1:-1]]
                and len(gp[0]) in (len(rp[0]), len(rp[0]) - 1)
                and len(gp[-1]) in (len(rp[-1]), len(rp[-1]) - 1)
            )
        if not ok:
            failures += 1
    return {"pass": failures == 0, "orbits_checked": checked, "failures": failures}


# each check reads the one Surface `verify` builds, which validates --n first
_CHECKS = {
    "moduli": _check_moduli,
    "reassembly": _check_reassembly,
    "identities": _check_identities,
    "equivalence": _check_equivalence,
    "torus": _check_torus,
}


def _cmd_verify(args) -> int:
    from . import highprec

    s = build_surface(args.n)
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    available = f"available: {', '.join(sorted(_CHECKS))}"
    if not names:
        raise ValueError(f"--checks names no check; {available}")
    for i, name in enumerate(names):
        if name not in _CHECKS:
            raise ValueError(f"--checks: unknown check {name!r}; {available}")
        if name in names[:i]:
            raise ValueError(f"--checks names {name!r} twice")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be a finite number > 0, got {args.tol}")
    results = {name: _CHECKS[name](args, s) for name in names}
    report = {
        "n": args.n,
        "tol": args.tol,
        "seed": args.seed,
        "precision_digits": highprec.oracle_digits(),
        "checks": results,
    }
    _emit_json(report, args.out)
    return 0 if all(r["pass"] for r in results.values()) else 1


def _cmd_torus(args) -> int:
    if args.seq is not None:
        if args.action == "trace":
            raise ValueError("torus trace takes --slope/--theta, not --seq")
        _reject_unread(args, ("slope", "theta", "start", "crossings"), "torus derive --seq")
        cyclic = bool(args.cyclic)
        derived = torus_derive_rule(args.seq, cyclic=cyclic)
        if cyclic:
            derived = cyclic_normal_form(derived)
        _emit_derived(args.seq, cyclic, "rule", derived, args.out)
        return 0
    if args.slope is None and args.theta is None:
        raise ValueError("torus needs --seq, --slope, or --theta")
    _reject_unread(args, ("cyclic",), f"torus {args.action} without --seq")
    if args.slope is not None:
        _reject_unread(args, ("theta",), f"torus {args.action} --slope")
    theta = _parse_theta(args)
    start_txt = "0.23,0.61" if args.start is None else args.start
    try:
        start = tuple(float(v) for v in start_txt.split(","))
    except ValueError:
        raise ValueError(f"--start must be two finite numbers x,y, got {start_txt!r}") from None
    crossings = 100 if args.crossings is None else args.crossings
    if crossings > MAX_CROSSINGS:  # torus_trace itself takes any bound: its own derivation stops at t_max
        raise ValueError(f"--crossings must be at most MAX_CROSSINGS = {MAX_CROSSINGS}, got {crossings}")
    traj = torus_trace(start, theta, max_crossings=crossings)
    if args.action == "trace":
        _emit_json(
            {
                "start": [round_sig(start[0]), round_sig(start[1])],
                "theta": round_sig(theta),
                "letters": list(traj.letters),
                "periodic": traj.periodic,
                "period": traj.period,
            },
            args.out,
        )
        return 0
    derived = torus_derive_geometric(traj)
    if traj.periodic:
        derived = cyclic_normal_form(derived)
    _emit_derived(traj.letters, traj.periodic, "geometric", derived, args.out)
    return 0


def _cmd_render(args) -> int:
    from .render import MAX_DRAWN_CROSSINGS, render_guide_svg, render_surface_svg

    s = build_surface(args.n)
    if args.what == "guide":
        _reject_unread(args, ("edge", "t", "theta", "crossings", "aux", "primed", "guide"), "render --what guide")
        svg = render_guide_svg(build_vertex_guide(s))
    else:
        traj = None
        if args.theta is None:
            _reject_unread(args, ("edge", "t", "crossings"), "render without --theta")
        else:
            k = index_for_letter("S2" if args.edge is None else args.edge)
            t = 0.55 if args.t is None else args.t
            crossings = 60 if args.crossings is None else args.crossings
            if crossings > MAX_DRAWN_CROSSINGS:
                raise ValueError(
                    f"render --crossings must be at most MAX_DRAWN_CROSSINGS = {MAX_DRAWN_CROSSINGS}"
                    f" (a trace alone may have MAX_CROSSINGS = {MAX_CROSSINGS}), got {crossings}"
                )
            traj = trace_from_edge(s, k, t, args.theta, max_crossings=crossings)
        guide = build_vertex_guide(s) if args.guide else None
        svg = render_surface_svg(
            s, trajectory=traj, guide=guide, show_aux=bool(args.aux), show_primed=bool(args.primed)
        )
    _emit([svg], args.out)
    return 0


# ---- parser -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, n: bool = True) -> None:
    """--out everywhere; --n unless the command has no polygon."""
    if n:
        p.add_argument("--n", type=int, default=5, help="number of polygon sides (odd, 5 to 25)")
    p.add_argument("--out", type=str, default=None, help="write output to this path instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parser is a web of
    reference cycles, so one built per in-process `main` call is garbage that
    only the cyclic collector frees."""
    ap = argparse.ArgumentParser(prog="oddgon", description="Double odd n-gon surfaces, flows, and derivation")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="emit the surface geometry as JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("trace", help="trace a trajectory from an edge point")
    _add_common(p)
    p.add_argument("--edge", type=str, required=True, help="edge: S2, B, or 2")
    p.add_argument("--t", type=float, required=True, help="parameter along the upper representative, in (0,1)")
    p.add_argument("--theta", type=float, required=True, help="direction in radians")
    p.add_argument("--crossings", type=int, default=200)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("derive", help="derive a letter sequence")
    _add_common(p)
    p.add_argument("--seq", type=str, required=True)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--method", choices=("ksl", "diagram"), default="ksl")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("derive-geometric", help="derive by tracing primed-edge crossings")
    _add_common(p)
    p.add_argument("--edge", type=str, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--crossings", type=int, default=100)
    p.set_defaults(func=_cmd_derive_geometric)

    p = sub.add_parser("diagram", help="emit a transition diagram")
    _add_common(p)
    p.add_argument("--stage", choices=("arrows", "augmented", "dual", "primed"), default="arrows")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("guide", help="emit the vertex guide point set")
    _add_common(p)
    p.set_defaults(func=_cmd_guide)

    p = sub.add_parser("verify", help="run numeric verification checks")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="random seed of the identities and torus checks")
    p.add_argument("--tol", type=float, default=1e-9, help="pass bound of the moduli and reassembly checks")
    p.add_argument(
        "--checks",
        type=str,
        default="moduli,reassembly",
        help=f"comma-separated subset of: {', '.join(sorted(_CHECKS))}; identities and torus do not read --n",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("torus", help="square-torus baseline")
    _add_common(p, n=False)
    p.add_argument("action", choices=("trace", "derive"))
    p.add_argument("--seq", type=str, default=None, help="apply the torus rule to this word")
    p.add_argument("--cyclic", action="store_true", default=None, help="with --seq: read it as a cyclic word")
    p.add_argument("--slope", type=str, default=None, help="direction as p/q or a float slope")
    p.add_argument("--theta", type=float, default=None, help="direction in radians")
    p.add_argument("--start", type=str, default=None, help="start point x,y (default 0.23,0.61)")
    p.add_argument("--crossings", type=int, default=None, help="crossings to trace (default 100)")
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("render", help="render an SVG figure")
    _add_common(p)
    p.add_argument("--what", choices=("surface", "guide"), default="surface")
    p.add_argument("--edge", type=str, default=None, help="with --theta: start edge (default S2)")
    p.add_argument("--t", type=float, default=None, help="with --theta: start parameter (default 0.55)")
    p.add_argument("--theta", type=float, default=None, help="trace and draw a trajectory at this direction")
    p.add_argument("--crossings", type=int, default=None, help="with --theta: crossings to draw (default 60)")
    p.add_argument("--guide", action="store_true", default=None, help="overlay guide dots")
    p.add_argument("--aux", action="store_true", default=None, help="draw auxiliary diagonals")
    p.add_argument("--primed", action="store_true", default=None, help="draw primed-edge pieces")
    p.set_defaults(func=_cmd_render)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the inner handlers write to --out, which may fail with a ValueError
        try:
            return args.func(args)
        except CornerHit as e:
            start = {"polygon": e.start_polygon, "point": list(e.start_point)}
            _emit_json({"error": "corner-hit", "detail": str(e), "theta": e.theta, "start": start}, args.out)
            return 1
        except InvalidPath as e:  # before ValueError, which it subclasses
            _emit_json({"error": "invalid-path", "detail": str(e)}, args.out)
            return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
