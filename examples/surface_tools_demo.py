#!/usr/bin/env python
"""Hole analysis on a detected inner boundary.

The paper motivates boundary detection with the need to delineate event
regions (Sec. I).  This demo detects the boundary groups of the Fig. 7
scenario and runs :func:`repro.applications.analyze_hole` on the inner
group: position, radius, and volume estimates for the internal hole,
compared against ground truth.

Usage::

    python examples/surface_tools_demo.py
"""

from repro import (
    BoundaryDetector,
    DeploymentConfig,
    analyze_hole,
    generate_network,
    one_hole_scenario,
)


def main() -> None:
    print("== deploying the one-hole scenario (Fig. 7) ==")
    network = generate_network(
        one_hole_scenario(),
        DeploymentConfig(
            n_surface=700, n_interior=1100, target_degree=30, seed=13
        ),
        scenario="one_hole",
    )
    print(network.summary())

    result = BoundaryDetector().detect(network)
    print(f"boundary groups: {[len(g) for g in result.groups]}")

    print("\n== analyzing the detected hole ==")
    hole_group = result.groups[1]
    report = analyze_hole(network.graph, hole_group)
    print(report.as_row())
    true_radius = 0.38 * network.scale
    print(
        f"ground truth: hole radius {true_radius:.2f} radio ranges "
        f"(estimate off by "
        f"{abs(report.mean_radius - true_radius) / true_radius:.0%})"
    )


if __name__ == "__main__":
    main()
