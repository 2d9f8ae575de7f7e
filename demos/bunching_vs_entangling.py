"""The trade-off at the heart of the package, in one table.

Sweep the mixing angle and report, side by side, how much the gate leaks
photons into bunched states and how entangling its computational action
could at best be.  The two columns never peak together: entangling power
needs exactly the mixing that ruins the qubit encoding.
"""

import math

from focklift import (
    composite_gate_fock,
    CompositeGateParams,
    entangling_measure,
    leakage,
    nearest_unitary_block,
)

rows = []
for k in range(0, 21):
    eps = k * math.pi / 40  # 0 .. pi/2
    # the four phases are single-qubit gates: they change neither number,
    # so the mixing angle alone is scanned, at zero phases
    gate = composite_gate_fock(CompositeGateParams(0.0, 0.0, 0.0, 0.0, eps))
    rows.append((eps, leakage(gate).frobenius_leakage,
                 entangling_measure(nearest_unitary_block(gate))))

print("eps        leakage    entangling_measure")
for eps, leak, meas in rows:
    bar = "#" * int(round(20 * meas))
    print(f"{eps:7.4f}  {leak:9.6f}  {meas:9.6f}  {bar}")

print("\nleakage zero  -> measure zero (decoupled points eps = k pi/2)")
print("measure high  -> leakage high (maximal near eps = pi/4)")
print("\nno parameter choice gives leakage 0 and measure > 0 at once;")
print("the nogo search certifies this numerically, see no_go_search.py.")
