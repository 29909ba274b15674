"""Normal-approximation BLER of the three schemes across SNR at two
Doppler spreads. The pilot-assisted scheme trades reference overhead for
an estimation penalty; the differential schemes trade rate for immunity
(FDDi) or exposure (TDDi) to time variation."""

import numpy as np

from minislot.channel import DopplerSpec, exponential_pdp
from minislot.fbl import scheme_fbl
from minislot.grid import FDDI, PA, TDDI, MiniSlotGrid, standard_pattern
from minislot._util import db_to_lin

pdp = exponential_pdp(5, 1.0)
grid = MiniSlotGrid(64, 2, standard_pattern(2, False, 2))
B = 64

for fd in (0.01, 0.1):
    print(f"\nfdTs = {fd}, B = {B} bits, QPSK, K=64 T=2")
    print("  SNR(dB)   PA           FDDi         TDDi")
    for gamma_db in np.arange(0.0, 6.5, 1.0):
        eps = {}
        for scheme in (PA, FDDI, TDDI):
            res = scheme_fbl(scheme, grid, pdp, DopplerSpec(fd),
                             db_to_lin(float(gamma_db)), B, 4)
            eps[scheme] = res.epsilon
        print(f"  {gamma_db:5.1f}    {eps[PA]:.3e}    {eps[FDDI]:.3e}"
              f"    {eps[TDDI]:.3e}")

res = scheme_fbl(PA, grid, pdp, DopplerSpec(0.1), db_to_lin(4.0), B, 4)
print(f"\nPA at 4 dB, fdTs=0.1: sigma_e^2 = {res.sigma_e2:.4f}, "
      f"effective SNR {10 * np.log10(res.gamma_hat):.2f} dB "
      f"(penalty {4.0 - 10 * np.log10(res.gamma_hat):.2f} dB)")
