#!/usr/bin/env python3
"""Render a small SVG gallery: surfaces, edge systems, orbits, guides.

Usage: python3 scripts/render_gallery.py [--out-dir gallery] [--n 5 7 9]
"""
import argparse
import math
import pathlib

from oddgon.flow import CornerHit, trace_from_edge
from oddgon.render import render_guide_svg, render_surface_svg
from oddgon.shear import build_vertex_guide
from oddgon.surface import build_surface


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", type=str, default="gallery")
    ap.add_argument("--n", type=int, nargs="+", default=[5, 7, 9])
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n in args.n:
        s = build_surface(n)
        (out / f"surface_{n}.svg").write_text(render_surface_svg(s))
        (out / f"edges_{n}.svg").write_text(render_surface_svg(s, show_aux=True, show_primed=True))
        (out / f"guide_{n}.svg").write_text(render_guide_svg(build_vertex_guide(s)))
        theta = 0.43 * s.sector
        try:
            traj = trace_from_edge(s, 2, 0.55, theta, max_crossings=50)
            (out / f"orbit_{n}.svg").write_text(render_surface_svg(s, trajectory=traj))
        except CornerHit:
            pass
        # the completely periodic mid-sector direction gives closed orbits
        try:
            traj = trace_from_edge(s, 2, 0.55, 0.5 * s.sector, max_crossings=200)
            if traj.periodic:
                (out / f"periodic_{n}.svg").write_text(render_surface_svg(s, trajectory=traj))
        except CornerHit:
            pass
        print(f"n={n}: wrote {len(list(out.glob(f'*_{n}.svg')))} figures")
    print(f"gallery in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
