"""Predicting attainable accuracy from coarse solves only.

The prediction walks a few coarse refinements, anchors the truncation
branch alpha_T N^-beta_T on the first level that shows the theoretical
rate, and intersects it with the round-off model alpha_R N^beta_R to
get the optimal DoF count and the attainable accuracy in closed form.
Brute force keeps refining until the error curve turns upward.

Runs both on the Poisson benchmark for quartic elements and prints the
predicted versus measured optimum, with wall times.
"""

import time

from fem_errbal import brute_force_sweep, catalog, prediction_loop

spec = catalog("bench-poisson")


def main():
    for flavor, var in (("standard", "u"), ("mixed", "ux")):
        t0 = time.perf_counter()
        res = prediction_loop(spec, flavor, 4, var)
        t_pred = time.perf_counter() - t0

        t0 = time.perf_counter()
        curve = brute_force_sweep(spec, flavor, 4, var, rise_streak=3)
        t_bf = time.perf_counter() - t0
        best = curve.locate_min()

        print(f"\n{flavor} p=4 {var}  (status: {res.status}, {res.refinements_used} coarse levels)")
        print(f"  anchor: E = {res.E_c:.3e} at N = {res.N_c}")
        print(
            f"  model: alpha_T = {res.model.alpha_T:.3e}, beta_T = {res.model.beta_T:g}, "
            f"alpha_R = {res.model.alpha_R:.1e}, beta_R = {res.model.beta_R:g}"
        )
        print(f"  predicted: E_min = {res.E_min:.3e} at N = {res.N_opt_real:.0f} "
              f"(enclosing mesh: {res.N_opt_mesh} DoF at refinement {res.N_opt_mesh_ref})")
        print(f"  brute force: E_min = {best.value:.3e} at N = {best.n_dof}")
        print(f"  wall: prediction {t_pred:.2f} s, brute force {t_bf:.2f} s")


if __name__ == "__main__":
    main()
