"""The paper's sensor-network case study (Figures 6 and 7).

54 sensors on a simulated Intel-Lab floor plan.  We improve the packet-
delivery reliability between two distant sensors by installing three new
radio links, each constrained to <= 15 meters and carrying the network's
average link quality — exactly the paper's §8.4.1 protocol.

Run:  python examples/sensor_network_case_study.py
      python examples/sensor_network_case_study.py --smoke   # CI-sized
"""

import os
import sys

#: CI runs every example with --smoke: same story, smaller numbers.
SMOKE = "--smoke" in sys.argv

from repro.api import MaximizeQuery, Session
from repro.core import eliminate_search_space
from repro.datasets import intel_lab
from repro.graph import fixed_new_edge_probability
from repro.reliability import RecursiveStratifiedSampler
from repro.viz import save_network_svg


def show_region(positions, sensor):
    x, y = positions[sensor]
    horizontal = "left" if x < 14 else "center" if x < 27 else "right"
    vertical = "bottom" if y < 10 else "middle" if y < 20 else "top"
    return f"{vertical}-{horizontal}"


def main() -> None:
    graph = intel_lab.build()
    positions = intel_lab.sensor_positions()
    zeta = round(intel_lab.average_link_probability(graph), 2)
    allowed = set(intel_lab.candidate_links(graph, positions))

    print(f"sensor network: {graph}")
    print(f"average link probability (used as zeta): {zeta}")
    print(f"installable <=15m links: {len(allowed)}")
    print()

    # r spans half the lab so the <= 15 m candidate rule still leaves
    # installable pairs between the two relevant regions.
    session = Session(
        graph,
        estimator=RecursiveStratifiedSampler(100 if SMOKE else 200, seed=7),
        evaluation_samples=500 if SMOKE else 2000,
        r=26,
        l=15,
    )
    prob_model = fixed_new_edge_probability(zeta)

    scenarios = [
        ("cross-lab (right wall -> top-left)", 5, 41),
        ("diagonal (bottom strip -> top wall)", 15, 44),
    ]
    for label, s, t in scenarios:
        space = eliminate_search_space(
            graph, s, t,
            r=session.r,
            new_edge_prob=prob_model,
            estimator=session.estimator,
            h=session.h,
        )
        space.edges = [
            (u, v, p) for u, v, p in space.edges if (u, v) in allowed
        ]
        solution = session.maximize(MaximizeQuery(
            s, t, k=3, zeta=zeta, method="be", candidate_space=space
        )).solution
        print(f"scenario: {label}")
        print(f"  sensor {s} ({show_region(positions, s)}) -> "
              f"sensor {t} ({show_region(positions, t)})")
        print(f"  reliability before: {solution.base_reliability:.3f}")
        print(f"  reliability after:  {solution.new_reliability:.3f}")
        for u, v, p in solution.edges:
            print(f"  + install link {u} -> {v}  "
                  f"({show_region(positions, u)} to "
                  f"{show_region(positions, v)}, p={p})")
        svg_path = f"sensor_case_{s}_{t}.svg"
        save_network_svg(
            svg_path, graph, positions,
            new_edges=solution.edges,
            highlight_nodes=[s, t],
            min_probability=0.33,
        )
        print(f"  map written to {os.path.abspath(svg_path)}")
        print()


if __name__ == "__main__":
    main()
