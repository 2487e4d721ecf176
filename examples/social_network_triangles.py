#!/usr/bin/env python
"""Subgraph analytics on a social network (the paper's §3.1 applications).

Workload: a preferential-attachment "social graph" with heavy-tailed
degrees.  We count triangles and 4-cycles with the algebraic algorithms
(Corollary 2), detect 4-cycles in O(1) rounds (Theorem 4), and compare
against the combinatorial prior work (Dolev et al.) on the same graph.

Run: ``python examples/social_network_triangles.py [n]`` (default 100).
"""

from __future__ import annotations

import sys

from repro import (
    count_four_cycles,
    count_triangles,
    detect_four_cycles,
    dolev_triangle_count,
)
from repro.graphs import (
    four_cycle_count_reference,
    preferential_attachment_graph,
    triangle_count_reference,
)


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    graph = preferential_attachment_graph(n, attach=3, seed=42)
    print(f"Social network: {graph}\n")

    tri = count_triangles(graph, method="bilinear")
    print(f"triangles (Corollary 2, ring matmul) : {tri.value:6d}"
          f"   [{tri.rounds} rounds on {tri.clique_size} nodes]")
    assert tri.value == triangle_count_reference(graph)

    prior = dolev_triangle_count(graph)
    print(f"triangles (Dolev et al. baseline)    : {prior.value:6d}"
          f"   [{prior.rounds} rounds]")
    assert prior.value == tri.value

    c4 = count_four_cycles(graph, method="bilinear")
    print(f"4-cycles  (Corollary 2)              : {c4.value:6d}"
          f"   [{c4.rounds} rounds]")

    detect = detect_four_cycles(graph)
    print(f"4-cycle existence (Theorem 4, O(1))  : {str(detect.value):>6s}"
          f"   [{detect.rounds} rounds, branch: {detect.extras['phase']}]")

    # Both 4-cycle answers must agree with the centralised reference count.
    reference_c4 = four_cycle_count_reference(graph)
    assert c4.value == reference_c4
    assert detect.value == (reference_c4 > 0)
    print(f"engine check: 4-cycle count and detection match the centralised"
          f" reference ({reference_c4} cycles)")

    print("\nTheorem 4's round count is independent of n -- rerun with a"
          " larger n and watch the last line stay flat.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
