"""Cross-check the operator-sum channels against stochastic unitary averages.

Each trajectory rotates the state by diagonal phases: every white-noise
field's phase at time t is drawn once, as N(0, rate * t).  The ensemble mean
reproduces the local and pair-collective channels to statistical accuracy:
each z-score divides a deviation by its exact standard error under the
channel, and a comparison passes when no z-score exceeds the Bonferroni
threshold for a 1e-3 family-wise false-alarm rate.
The triple-collective operators are the known exception: their corner decay
differs from the phase-diffusion prediction, which the forced comparison
quantifies instead of hiding.
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

print("\nforced triple-collective comparison (informational):")
ghz = GHZState(2**-0.5, 2**-0.5)
cmp_triple = compare_to_channel(
    ghz, named_scenario("3q-collective", 1.0), cfg, force_informational=True
)
for entry in cmp_triple.divergence:
    print(
        f"  {entry['element']}: stochastic average decays by "
        f"{entry['stochastic_factor']:.5f}, channel operators give "
        f"{entry['channel_factor']:.5f}"
    )
