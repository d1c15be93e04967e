"""Track a pendulum from noisy magnitude-only observations.

The true pendulum starts at (0.2 pi, 0) and is observed six times over one
period through z_k ~ N(|x1(t_k)|, 0.1^2): the force on the string tells us
how far the pendulum is from the bottom but not on which side.  Starting
from a symmetric prior, the posterior therefore develops two mirror-image
modes; the mean stays pinned at zero and is useless as an estimate, while
the standard deviation tracks the amplitude of the swing.

``fpfvm filter`` runs the same experiment from the command line.
"""

import numpy as np

import fpfvm as F

pi = np.pi
seed = 7

domain = F.BoxDomain((-pi, -pi), (pi, pi))
grid = F.build_grid(domain, (200, 200), ("periodic", "neumann"))
field = F.pendulum_field()
op = F.assemble(F.compute_fluxes(field, grid), grid.h[0] / (2 * pi + 1))

prior = F.normalize(F.project(F.gaussian_pdf((0.0, 0.0), 0.64), grid))
model = F.gaussian_abs_position_model(0.1)

obs_times = [k * 2 * pi / 7 for k in range(1, 7)]
truth = F.simulate_truth(field, (0.2 * pi, 0.0), obs_times, domain=domain,
                         bc=grid.bc)
obs = F.synthesize_observations(obs_times, truth, sigma=0.1, seed=seed)
print("observed |x1| with noise:", np.round(obs.values, 3))

state = F.run_filter(prior, op, model, obs, t_end=2 * pi,
                     snapshot_times=(0.0, pi / 6, pi / 3, pi))

print(f"\nfinal time {state.time:.4f}, log evidence {state.log_evidence:.4f}")
print(f"{'t':>6} {'modes':>5} {'mean x1':>9} {'std x1':>7} {'std x2':>7}")
hist = state.history
for target in (0.0, pi / 6, pi / 3, pi, 2 * pi):
    i = np.argmin(np.abs(hist.time - target))
    print(f"{hist.time[i]:6.3f} {hist.mode_count[i]:5d} {hist.mean[i, 0]:9.2e} "
          f"{hist.std[i, 0]:7.4f} {hist.std[i, 1]:7.4f}")

# the posterior is exactly symmetric under (x1, x2) -> (-x1, -x2): the
# dynamics are odd, the likelihood is even, and the prior is centered
final = state.posterior.values
print(f"\nposterior point-asymmetry: {np.abs(final - final[::-1]).max():.2e}")

F.write_run_report(state, "tracking_report.csv")
for i, (t, dens) in enumerate(state.snapshots):
    F.save_density(dens, f"tracking_snapshot_{i}.csv", t=t)
print("wrote tracking_report.csv and tracking_snapshot_*.csv")
