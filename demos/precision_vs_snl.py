"""Per-phase precision against the shot-noise and Heisenberg baselines.

Runs blocked phase measurements at the short-link operating point and
prints, for each setpoint, the block-to-block spread of the estimator
next to the shot-noise limit 1/sqrt(n) and the Heisenberg limit
1/sqrt(3*n) computed from the audited photon-pass count n of one
block's worth of resources. Positive dB means the entangled strategy
beat the shot-noise baseline without any event discarded.
"""

import warnings

from entsense import EfficiencyBudget, SourceParams
from entsense.cli import analytic_calibration
from entsense.errors import DegenerateEstimateWarning
from entsense.randomphase import precision_scan

SOURCE = SourceParams(mu=0.056, visibility=0.9804, n_max=4)
EFF = EfficiencyBudget({"A1": 0.7432, "A2": 0.7667, "B1": 0.7477, "B2": 0.6974})
K_BAR = 6200       # informative events per block
S = 400            # blocks per setpoint; the spread has ~3.5% spread itself


def main():
    cal = analytic_calibration(SOURCE, EFF)
    print(f"calibration: V_eff = {cal.visibility_hat:.4f}, "
          f"k_bar = {K_BAR}, s = {S} blocks\n")
    print(f"{'theta':>7} {'theta_hat':>10} {'delta':>9} {'snl':>9} "
          f"{'hl':>9} {'dB vs snl':>10}")
    # interior grid: the branch ends are fringe extrema where the
    # estimate degenerates and the toolkit flags the point instead
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateEstimateWarning)
        thetas, measurements, _ = precision_scan(SOURCE, EFF, cal, 7, K_BAR, S,
                                                 seed=7)
    for theta, m in zip(thetas, measurements):
        r = m.report
        mark = " (flagged: near extremum)" if m.extremum else ""
        print(f"{theta:7.3f} {m.theta_hat:10.4f} {r.delta_hat:9.5f} "
              f"{r.snl:9.5f} {r.hl:9.5f} {r.db_below_snl:+10.3f}{mark}")
    print("\nn per block is audited from recorded clicks, corrected for")
    print("loss, with every pulse counted; nothing is post-selected.")


if __name__ == "__main__":
    main()
