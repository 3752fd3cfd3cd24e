"""GHZ-class states: one global coherence, five characteristic decay factors.

The only moving part is the |000><111| corner element.  Each noise placement
multiplies it by its own power of the per-channel decay factor g = e^(-rate
t/2); the pairwise reductions are diagonal from the start, so two-qubit
entanglement is identically zero the whole time.
"""

import numpy as np

from dephasim import GHZState, concurrence_curve, evolve, gamma, named_scenario, projector
from dephasim.states import reduced_stacks

s = 1 / np.sqrt(2)
spec = GHZState(s, s)
rho0 = projector(spec)
t = 1.0
g = gamma(1.0, t)

expected = {
    "3q-local-A": g,
    "3q-pair-AB": g**4,
    "3q-collective": g**4,
    "3q-multi-local": g**3,
    "3q-local-A-pair-BC": g**5,
}

print(f"corner coherence at t={t} (g = {g:.4f}):\n")
for name, factor in expected.items():
    evolved = evolve(rho0, named_scenario(name, 1.0), t)
    ratio = abs(evolved.matrix[0, 7] / rho0.matrix[0, 7])
    print(f"{name:20s} measured {ratio:.6f}   expected {factor:.6f}")

evolved = evolve(rho0, named_scenario("3q-multi-local", 1.0), t)
print("\npairwise reductions at t=1 (all diagonal, zero concurrence):")
for label, red in reduced_stacks(evolved.matrix, spec.register).items():
    if len(label) == 2:
        c = concurrence_curve(red)
        print(f"  {label}: diag {np.real(np.diag(red)).round(4)}  C = {c:.1e}")
