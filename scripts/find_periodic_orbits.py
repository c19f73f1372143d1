#!/usr/bin/env python3
"""Scan a direction for periodic trajectories and derive their cyclic words.

In a completely periodic direction (pi/10 on the pentagon, say) every start
parameter lies on a periodic orbit; the scan reports one representative per
distinct cyclic word found along each edge. A word is flagged MISMATCH when
its rule and geometric derivations differ, or when, normalized into
[0, pi/n), it is not a closed walk of the arrows diagram (`fits`).

Usage: python3 scripts/find_periodic_orbits.py [--n 5] [--theta-frac 0.5]
       (--theta-frac t scans direction t * pi/n)
"""
import argparse
import math

from oddgon.derivation import cyclic_normal_form, fits, ksl_cyclic
from oddgon.flow import CornerHit, derive_geometric, normalize_direction, trace_from_edge
from oddgon.surface import build_surface


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--theta-frac", type=float, default=0.5, help="direction as a fraction of pi/n")
    ap.add_argument("--grid", type=int, default=200)
    ap.add_argument("--max-crossings", type=int, default=400)
    args = ap.parse_args()

    s = build_surface(args.n)
    theta = args.theta_frac * s.sector
    print(f"n={args.n}  theta={theta:.6f} rad ({args.theta_frac} * pi/{args.n})")
    normalized = normalize_direction(s, theta)
    seen: dict[str, tuple[int, float, int]] = {}
    for k in range(1, args.n + 1):
        for i in range(1, args.grid):
            u = i / args.grid
            try:
                traj = trace_from_edge(s, k, u, theta, max_crossings=args.max_crossings)
            except CornerHit:
                continue
            if not traj.periodic:
                continue
            word = cyclic_normal_form(traj.period_word)
            if word not in seen:
                seen[word] = (k, u, traj.period)
    if not seen:
        print("no periodic orbits found (direction is likely not completely periodic)")
        return 0
    print(f"{'period':>6}  {'edge':>4}  {'u':>6}  {'cyclic word':<24} {'rule':<12} {'geometric':<12}")
    for word, (k, u, period) in sorted(seen.items(), key=lambda kv: kv[1][2]):
        traj = trace_from_edge(s, k, u, theta, max_crossings=args.max_crossings)
        geo = cyclic_normal_form(derive_geometric(s, traj).letters)
        rule = cyclic_normal_form(ksl_cyclic(word))
        walk = normalized.apply(word)
        flag = "" if geo == rule and fits(walk + walk[:1], args.n) else "  <-- MISMATCH"
        print(f"{period:>6}  S{k:<3}  {u:>6.3f}  {word:<24} {rule:<12} {geo:<12}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
