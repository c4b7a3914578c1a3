"""Where loss eats the entangled advantage.

With an ideal source the advantage over the shot-noise limit is
10*log10(3*eta^2) dB at uniform channel efficiency eta, so it crosses
zero at eta = 1/sqrt(3) = 57.7%. Below the analytic curve this script
samples the same scan with the simulator and locates the crossing from
the fitted line, through the threshold_scan run that the threshold-scan
subcommand makes.
"""

import math

import numpy as np

from entsense import SourceParams, threshold_efficiency
from entsense.randomphase import threshold_scan

SOURCE = SourceParams(mu=0.001, visibility=1.0, n_max=3)
PULSES = 500_000


def main():
    print(f"closed-form threshold: eta = {threshold_efficiency():.4f}\n")
    print(f"{'eta':>6} {'analytic dB':>12} {'sampled dB':>11}")
    rows, (_, _, crossing) = threshold_scan(
        SOURCE, np.arange(0.50, 0.6501, 0.025), PULSES, seed=123)
    for eta, _, _, db in rows:
        print(f"{eta:6.3f} {10 * math.log10(3 * eta * eta):12.3f} {db:11.3f}")
    print(f"\nfitted-line crossing: eta = {crossing:.4f}")
    print("the residual gap to the closed form is the mild curvature of")
    print("the dB curve plus finite-mu multi-pair corrections")


if __name__ == "__main__":
    main()
