"""Lift a shrinking target value into a singularity, watching g blow up.

The squared-norm map F(u) = ||u||^2 sends every shell to one value; its
only singular point is the origin. Driving the target value linearly
from 1 to 0 pulls the lift along u(s) = sqrt(1-s) u0 straight into that
singularity. The blowup indicator g = a1/sqrt(lambda_1) follows
-1/(2 sqrt(1-s)); it diverges, but its integral stays finite (exactly 1),
which is why the lift itself stays bounded all the way in. The solver
takes the whole lift in sigma = sqrt(1-s), where u is linear (states
flagged `endgame`): one step, then one aimed at the sigma where lambda_1
reaches twice the singular threshold, and one step of the approach walk
crosses it at s = 1 (flagged `singular`).

Run:  python3 demos/demo_sphere_singular_lift.py
"""

import numpy as np

import pathlift as pl


def main():
    oracle = pl.SphereMap(3)
    u0 = np.array([0.8, -0.36, 0.48])        # any unit vector works
    path = pl.LinePath([1.0], [0.0])

    report = pl.lift(oracle, path, u0)

    print(f"termination: {report.status}")
    print(f"final ||u|| = {oracle.norm(report.final_u):.3e} "
          f"(the lift lands on the singular point)")
    print(f"integral of |g| ds = {report.g_integral:.6f} "
          "(analytic value: 1)")
    print()
    print("        s        ||u||    sqrt(1-s)          g     "
          "-1/(2 sqrt(1-s))  flags")
    for st in report.trace:
        exact_norm = np.sqrt(max(1.0 - st.s, 0.0))
        exact_g = -0.5 / exact_norm if exact_norm > 0 else float("-inf")
        g = st.diag.g if np.isfinite(st.diag.g) else float("nan")
        print(f"  {st.s:11.8f}  {oracle.norm(st.u):9.6f}  {exact_norm:9.6f}"
              f"  {g:12.4f}  {exact_g:12.4f}  {st.flags}")
    fin = report.final_state
    print(f"\nlast state: s = {fin.s}, lambda_1 = "
          f"{fin.spectrum.lambdas[0]:.3e} (below the singular threshold), "
          f"flags = {fin.flags!r}")


if __name__ == "__main__":
    main()
