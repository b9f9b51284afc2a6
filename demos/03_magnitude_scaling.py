"""How far a normalized error frame brings the fitted floors together.

The family u(x) = sin(2 pi c x) / (2 pi c)^2 keeps the data f = u''
at magnitude one while the solution magnitude sweeps seven decades as
c goes from 0.01 to 100.  The demo fits the round-off branch
alpha_R N^beta_R of each error curve, unscaled and under scheme S, which
solves the same levels and divides each error value by ||u||, and prints
how many decades the fitted offsets span.

Unscaled, the offsets track the solution magnitude (about 9 decades
here).  Scheme S removes that magnitude but does not bring the offsets
onto one level (about 2.3 decades here): scaling only picks the frame,
so the scaled offsets still differ by the shapes of the floors, and
free-slope intercepts extrapolate those shapes to N = 1.  So one table
alpha_R does not cover the family; measuring alpha_R from the coarse
solves is ROADMAP item 3, and acceptance check 4 fails its 1-decade
spread bound for the same reason.

All runs share one deep DoF cap: free-slope offsets are extrapolations
to N = 1 and are only comparable between equal fit windows, and the
high-frequency end of the family needs millions of DoF before its
round-off branch is long enough to fit.  Takes about a minute.
"""

import numpy as np

from fem_errbal import brute_force_sweep, catalog, fit_floor, l2_norm

COEFFICIENTS = (0.01, 1.0, 100.0)
CAP = 9_000_000


def main():
    print(f"{'c':>8} {'||u||':>10} {'scheme':>7} {'alpha_R_hat':>12} {'beta_R_hat':>11}")
    offsets = {"none": [], "S": []}
    for c in COEFFICIENTS:
        spec = catalog("case1", c)
        norm_u = l2_norm(spec.exact_u)
        for scheme in ("none", "S"):
            curve = brute_force_sweep(
                spec, "standard", 2, "u", scheme=scheme, n_max=CAP, rise_streak=None
            )
            fit = fit_floor(curve)
            offsets[scheme].append(np.log10(fit.alpha_R_hat))
            print(
                f"{c:>8g} {norm_u:>10.3e} {scheme:>7} "
                f"{fit.alpha_R_hat:>12.3e} {fit.beta_R_hat:>11.3f}"
            )

    for scheme in ("none", "S"):
        vals = offsets[scheme]
        print(f"scheme {scheme:>4}: fitted offsets span {max(vals) - min(vals):.2f} decades")
    print("(scheme S removes the solution magnitude from the offsets; what")
    print(" spread remains comes from the floors' shapes, see ROADMAP item 3)")


if __name__ == "__main__":
    main()
