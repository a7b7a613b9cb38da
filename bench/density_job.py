"""Density-matrix cross-check script; uses only lossyphase's public API.

For every (N, L) pair it sends the optimal state through the loss splitter
(``pure_lossy_state``), traces the scattered mode out (``reduced_density``),
reads the phase distribution off the density matrix
(``distribution_from_density``) and compares its sharpness with
``sharpness_closed``. One JSON row per pair goes to ``--out``; the exit code
is 1 when the two sharpness paths disagree.

    python3 bench/density_job.py --n 64,128,256 --loss 1e-7,0.02 --out density.json
"""

from __future__ import annotations

import argparse
import json
import sys

import lossyphase as lp

# the tolerance `lossyphase validate` applies to the same dual-path check
DUAL_PATH_TOLERANCE = 1e-10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", required=True, help="comma-separated photon numbers")
    parser.add_argument("--loss", required=True, help="comma-separated loss fractions")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    rows = []
    for n in (int(x) for x in args.n.split(",")):
        state = lp.optimal_amplitudes(n)
        for loss in (float(x) for x in args.loss.split(",")):
            channel = lp.channel_from_loss(loss)
            pure = lp.pure_lossy_state(state, channel)
            rho = lp.reduced_density(state, channel)
            rows.append({
                "n": n,
                "loss": loss,
                "norm_pure": pure.norm_squared(),
                "trace_rho": rho.trace(),
                "blocks": len(rho.blocks),
                "sharpness_density": lp.distribution_from_density(rho).fourier_sharpness(),
                "sharpness_closed": lp.sharpness_closed(state, channel),
            })
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"rows": rows}, handle, indent=1)
        handle.write("\n")

    worst = max(abs(r["sharpness_density"] - r["sharpness_closed"]) for r in rows)
    if worst > DUAL_PATH_TOLERANCE:
        print(f"dual-path sharpness defect {worst:.3e} above {DUAL_PATH_TOLERANCE:.0e}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
