"""Cross-check the operator-sum channels against stochastic unitary averages.

Each trajectory rotates the state by diagonal phases: every white-noise
field's phase at time t is drawn once, as N(0, rate * t).  The ensemble mean
reproduces every channel to statistical accuracy: a field charges the all-0
corner of its support +h and the all-1 corner -h (h = 1/2 for a local field,
1 for a collective one).  Each z-score divides a deviation by its exact
standard error under the channel, and a comparison passes when no z-score
exceeds the Bonferroni threshold for a 1e-3 family-wise false-alarm rate.
"""

from dephasim import (
    GenericPure,
    GHZState,
    TrajectoryConfig,
    compare_to_channel,
    named_scenario,
)

spec = GenericPure(0.5, 0.5, 0.5, 0.5)

print("convergence to the local channel (rate 1, t = 1):")
for n in (100, 1000, 10_000):
    cfg = TrajectoryConfig(n_trajectories=n, seed=123, t_final=1.0)
    cmp_ = compare_to_channel(spec, named_scenario("2q-local-A", 1.0), cfg)
    print(
        f"  n={n:>6d}: distance {cmp_.distance:.5f}  "
        f"(expected {cmp_.expected_distance:.5f}, max |z| {cmp_.max_z:.2f} "
        f"against {cmp_.z_limit:.2f})"
    )

print("\npair-collective channel, same ensemble machinery:")
cfg = TrajectoryConfig(n_trajectories=10_000, seed=7, t_final=1.0)
cmp_pair = compare_to_channel(spec, named_scenario("2q-collective", 1.0), cfg)
print(f"  distance {cmp_pair.distance:.5f}, passed: {cmp_pair.passed}")

print("\ntriple-collective channel on GHZ: the corner coherence turns by twice the phase")
ghz = GHZState(2**-0.5, 2**-0.5)
cmp_triple = compare_to_channel(ghz, named_scenario("3q-collective", 1.0), cfg)
print(
    f"  rho_18: Monte Carlo {cmp_triple.mc_mean[0, 7].real:.5f}, "
    f"channel {cmp_triple.channel_matrix[0, 7].real:.5f}, passed: {cmp_triple.passed}"
)
