"""Evolve a probability density under the pendulum flow.

Builds the upwind transition matrix on a 100x100 periodic/Neumann box,
checks that it is a stochastic matrix, and pushes an off-center Gaussian
forward in time.  Along the way we watch the two structural guarantees:
total mass stays fixed and no cell ever goes negative, no matter how long
we run.  At t = pi/4 and pi/2 we also measure the scheme's error: the
pendulum flow preserves area, so the exact density is the prior carried
along it, p(t, x) = p0(Phi_{-t} x) (Lasota & Mackey, Chaos, Fractals, and
Noise, 1994), which ``flow`` gives at the cell centres.
"""

import numpy as np

import fpfvm as F
from fpfvm.grid import mesh

pi = np.pi

domain = F.BoxDomain((-pi, -pi), (pi, pi))
grid = F.build_grid(domain, (100, 100), ("periodic", "neumann"))
field = F.pendulum_field()

fluxes = F.compute_fluxes(field, grid)
report = F.max_stable_dt(fluxes, xi=pi / (2 * pi + 1))
dt = grid.h[0] / (2 * pi + 1)
print(f"grid: {grid.n[0]}x{grid.n[1]} cells, h = {grid.h[0]:.5f}")
print(f"largest stable step {report.dt_max:.6f}, using dt = {dt:.6f}")

op = F.assemble(fluxes, dt)
mk = F.verify_markov(op)
print(f"stochastic matrix: min entry {mk.min_entry:.3e}, "
      f"row-sum error {mk.max_row_sum_err:.1e}\n")

# an uncertain initial state, displaced from the resting point
pdf = F.gaussian_pdf((0.6 * pi, 0.0), 0.64)
projected = F.project(pdf, grid)
prior = F.normalize(projected)


def exact_density(t):
    """p0(Phi_{-t} x) at the cell centres, scaled as normalize scales the prior."""
    theta, v = F.flow(field, mesh([grid.centres(0), grid.centres(1)]), -t)
    theta = (theta + pi) % (2 * pi) - pi  # the angle axis is periodic
    return F.Density((pdf((theta, v)) / projected.mass).reshape(-1), grid)


# walk whole steps: each target time snaps to its nearest step k, and the
# time printed is the one reached, k * dt
dens = prior
k = 0
print(f"{'t':>6} {'mass':>18} {'min':>10} {'mean x1':>9} {'mean x2':>9} "
      f"{'std x1':>7} {'std x2':>7} {'L1 to exact':>11}")
for target in (0.0, pi / 4, pi / 2, pi, 2 * pi):
    k_next = F.step_count(target, op.dt)
    dens = F.evolve(op, dens, (k_next - k) * op.dt)
    k = k_next
    t = k * op.dt
    m = F.moments(dens)
    sd = np.sqrt(np.diag(m.covariance))
    l1 = (f" {F.l1_distance(dens, exact_density(t)):11.4f}"
          if target in (pi / 4, pi / 2) else "")
    print(f"{t:6.3f} {dens.mass:18.15f} {dens.values.min():10.2e} "
          f"{m.mean[0]:9.4f} {m.mean[1]:9.4f} {sd[0]:7.4f} {sd[1]:7.4f}{l1}")

# the swirl stretches the bump along the energy contours; the angle
# marginal eventually spreads over most of the circle
marg = F.marginal(dens, 0)
print(f"\nangle marginal after one period: {F.count_modes(marg, 0.1)} mode(s), "
      f"mass {marg.mass:.12f}")

F.save_density(dens, "pendulum_density_t2pi.csv", t=t)
print("wrote pendulum_density_t2pi.csv")
