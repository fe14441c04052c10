"""Closing the loop: does the pinned network actually synchronize?

Two experiments tie the spectra back to trajectories. First, scalar
unstable dynamics on K4 under a constant pinned gain, where the
criterion and an exact eigenvalue oracle agree on the outcome. Second,
chaotic Chua circuits on a small-world ring with adaptive gains that
grow until the network locks onto the reference orbit.
"""

import numpy as np

from pinopt import (
    SimConfig,
    check_criterion,
    chua,
    feedback_gain_bound,
    gen_complete,
    gen_nw,
    linear_stability_oracle,
    linear_unstable,
    simulate,
)

# -- constant gain on K4, certified by the criterion --------------------------
g = gen_complete(4)
dyn = linear_unstable(0.5)
c = 2.0
pins = (0,)
ok = check_criterion(g, pins, dyn.alpha, c)
dstar = feedback_gain_bound(g, pins, dyn.alpha, c)
print(f"K4, pin node 0, c={c}: criterion holds: {ok}, gain bound d* = {dstar:.4f}")
# the bound certifies with a 0.5 margin, so somewhat smaller gains still work;
# only near the oracle's zero crossing does the network actually let go
for d in (dstar + 0.2, dstar - 0.6, 0.02):
    mu = linear_stability_oracle(g, pins, 0.5, c, d)
    res = simulate(g, pins, dyn, SimConfig(controller="linear", c=c, d=d, t_end=60.0, seed=3))
    print(f"  d={d:.3f}: predicted rate {mu:+.4f}, converged={res.converged}, "
          f"final error {res.final_error:.2e}")

# -- adaptive gains, chaotic nodes --------------------------------------------
g = gen_nw(20, 4, 0.1, seed=2)
dyn = chua()
pins = tuple(range(0, 20, 4))
print(f"\nChua circuits on NW(20, K=4), adaptive gains on {len(pins)} pins {pins}")
print(f"  one-sided growth certificate alpha_min = {dyn.alpha_min:.4f}")
cfg = SimConfig(controller="adaptive", c=10.0, h=5.0, dt=5e-4, t_end=30.0, seed=7)
res = simulate(g, pins, dyn, cfg)
print(f"  converged={res.converged}, final error {res.final_error:.2e}")
print(f"  adaptive gains settled at: {np.round(res.gains[-1], 3)}")
