#!/usr/bin/env python
"""Pipeline-interior inspection: the paper's Fig. 9 scenario under error.

Sensor nodes fill a bent pipe (e.g. dispersed through a duct or pipeline
section).  The inspection:

1. deploys the network inside the bent pipe;
2. sweeps distance-measurement error over 0%..40% and prints the
   Fig. 1(g)-style detection table for this geometry;
3. builds the boundary mesh at each error level and reports the mesh
   deviation from the true pipe wall -- the paper's Figs. 1(j)-(l)
   error-tolerance story on a non-convex shape.

Usage::

    python examples/pipe_inspection.py
"""

from repro import DeploymentConfig, bent_pipe_scenario, generate_network
from repro.evaluation.experiments import run_error_sweep, run_mesh_error_sweep
from repro.evaluation.reporting import (
    render_error_sweep_counts,
    render_mesh_error_sweep,
    render_mistaken_distribution,
)


def main() -> None:
    print("== deploying network in a bent pipe (Fig. 9) ==")
    network = generate_network(
        bent_pipe_scenario(),
        DeploymentConfig(
            n_surface=600, n_interior=800, target_degree=28, seed=9
        ),
        scenario="bent_pipe",
    )
    print(network.summary())

    levels = (0.0, 0.2, 0.4)
    print("\n== detection vs distance measurement error ==")
    points = run_error_sweep(network, levels, seed=3)
    print(render_error_sweep_counts(points))

    print("\n== where do mistaken nodes sit? (hops to correct boundary) ==")
    print(render_mistaken_distribution(points))

    print("\n== mesh quality vs error (Figs. 1(j)-(l) analogue) ==")
    mesh_points = run_mesh_error_sweep(network, levels=(0.0, 0.3), seed=3)
    print(render_mesh_error_sweep(mesh_points))


if __name__ == "__main__":
    main()
