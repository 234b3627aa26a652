#!/usr/bin/env python3
"""Certify an erasure-pair instance and sweep its rate-gain curve.

Writes the slope curve as CSV (alpha, ccf, delta_rate, ratio) plus a JSON
verdict next to it, and prints a short summary.
"""

import argparse
import json
import pathlib

from cfdiamond import (
    bec_coding_dist,
    infinite_slope_verdict,
    make_bec_pair,
    slope_curve,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=0.5, help="erasure probability")
    ap.add_argument("--q", type=float, default=0.5, help="re-erasure probability")
    ap.add_argument("--c0", type=float, default=0.25, help="relay pipe capacity (bits)")
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()

    spec = make_bec_pair(args.p, c0=args.c0)
    cd = bec_coding_dist(args.p, args.q)
    verdict = infinite_slope_verdict(spec, cd)
    print(f"verdict: {verdict.verdict} (lp value {verdict.lp_value:.6g})")
    if verdict.direction is None:
        print("no certified direction; nothing to sweep")
        return

    curve = slope_curve(spec, cd, verdict.direction)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / f"bec_sweep_p{args.p}_q{args.q}_c0{args.c0}.csv"
    csv_path.write_text(curve.to_csv())
    json_path = csv_path.with_suffix(".json")
    json_path.write_text(json.dumps(
        {"verdict": verdict.to_json_dict(), "curve": curve.to_json_dict()},
        sort_keys=True, indent=2) + "\n")

    first = curve.points[0]
    last = curve.points[-1]
    print(f"ratio at alpha={first[0]:g}: {first[3]:.3f}")
    print(f"ratio at alpha={last[0]:g}: {last[3]:.3f}")
    print(f"cost coefficient kappa={curve.kappa:.6g} (ccf ~ kappa * alpha^2)")
    print(f"wrote {csv_path} and {json_path}")


if __name__ == "__main__":
    main()
