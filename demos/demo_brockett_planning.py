"""Plan a control for the nonholonomic Brockett integrator by continuation.

The system x1' = u1, x2' = u2, x3' = x1 u2 cannot move in the x3
direction with a first-order wiggle from rest: the endpoint map's
Gramian at the zero control has a zero eigenvalue aligned with e3.
Starting instead from the constant control (1, 1) -- where the Gramian
is regular -- we drag the endpoint along a straight line to the target
(0.5, -0.3, 0.2) by integrating the path-lifting equation in control
space. The result is an explicit piecewise-constant control whose
re-integrated endpoint matches the target to solver precision.

Run:  python3 demos/demo_brockett_planning.py
"""

import numpy as np

import pathlift as pl


def main():
    oracle = pl.endpoint_problem("brockett", x0=[0.0, 0.0, 0.0],
                                 horizon=1.0, segments=20)

    # the zero control is the classic degenerate start: corank-1 Gramian,
    # with a repeated eigenvalue above lambda_1
    spec0 = pl.spectrum_at(oracle, np.zeros(oracle.dim_domain))
    print("Gramian eigenvalues at the zero control:",
          np.round(spec0.lambdas, 12))
    print("least eigenvector (the invisible direction):",
          np.round(spec0.vectors[:, 0], 6))
    print("tied eigenvalues above lambda_1:", spec0.degenerate)
    print()

    u0 = oracle.grid.constant([1.0, 1.0])
    target = np.array([0.5, -0.3, 0.2])
    path = pl.line_to_target(oracle, u0, target)

    report = pl.lift(oracle, path, u0)
    print(f"continuation: {report.status} in {len(report.trace)} "
          "accepted states")

    endpoint = oracle.endpoint_refined(report.final_u, refine=4)
    print(f"re-integrated endpoint: {np.round(endpoint, 9)}")
    print(f"target:                 {target}")
    print(f"endpoint error: {np.linalg.norm(endpoint - target):.3e}")
    print(f"control L2 norm: {oracle.norm(report.final_u):.6f}")
    print()
    print("planned control (segment, u1, u2):")
    for k, (a, b) in enumerate(oracle.grid.unpack(report.final_u)):
        print(f"  {k:2d}  {a:+9.5f}  {b:+9.5f}")


if __name__ == "__main__":
    main()
