"""Regenerate the paper's Table 1 from measured simulation runs.

For every problem row, runs our implementation over a sweep of clique sizes,
records the metered round counts, fits the empirical growth exponent, and
prints it next to (a) the paper's bound, (b) the prior-work bound, and --
for the prior work we implemented (Dolev et al.) -- the prior work's
*measured* rounds, so the "who wins, by what factor" comparisons are
measured rather than asserted.

The paper's headline exponent ``rho <= 1 - 2/omega < 0.15715`` assumes
Le Gall's galactic algorithm; the code deploys Strassen, so the implemented
target exponent for the ``n^rho`` rows is ``1 - 2/log2(7) ~ 0.2876``
(:data:`repro.constants.RHO_IMPLEMENTED`).  See DESIGN.md.

Usage: ``python -m repro table1 [--full]`` or
:func:`run_table1` / :func:`format_table1` programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.dolev import dolev_four_cycle_detect, dolev_triangle_count
from repro.clique.model import CongestedClique
from repro.constants import RHO_IMPLEMENTED, RHO_PAPER
from repro.distances.approx import apsp_approx
from repro.distances.apsp import apsp_exact
from repro.distances.bounded import apsp_bounded
from repro.distances.girth import girth_undirected
from repro.distances.seidel import apsp_unweighted
from repro.graphs.generators import (
    bipartite_random_graph,
    dense_small_girth_graph,
    gnp_random_graph,
    planted_cycle_graph,
    random_weighted_digraph,
)
from repro.matmul.bilinear_clique import bilinear_matmul, default_algorithm
from repro.matmul.exponent import fit_exponent
from repro.matmul.semiring3d import semiring_matmul
from repro.subgraphs.colour_coding import detect_k_cycle
from repro.subgraphs.counting import count_four_cycles, count_triangles
from repro.subgraphs.four_cycle import detect_four_cycles


@dataclass
class ProblemReport:
    """One Table 1 row, measured."""

    problem: str
    sizes: list[int]
    rounds: list[int]
    paper_bound: str
    prior_bound: str
    prior_rounds: list[int] | None = None
    notes: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def fitted_exponent(self) -> float:
        return fit_exponent(self.sizes, [max(1, r) for r in self.rounds])

    @property
    def prior_fitted_exponent(self) -> float | None:
        if self.prior_rounds is None:
            return None
        return fit_exponent(self.sizes, [max(1, r) for r in self.prior_rounds])


def _quick(scale: str, quick: list[int], full: list[int]) -> list[int]:
    return quick if scale == "quick" else quick + full


def run_table1(scale: str = "quick", seed: int = 0) -> list[ProblemReport]:
    """Run every Table 1 workload; ``scale`` is ``"quick"`` or ``"full"``."""
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    rng = np.random.default_rng(seed)
    reports: list[ProblemReport] = []

    # -- matrix multiplication (semiring), Theorem 1 / §2.1 -------------- #
    sizes = _quick(scale, [27, 64, 125], [216])
    rounds = []
    for n in sizes:
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        semiring_matmul(clique, s, t)
        rounds.append(clique.rounds)
    reports.append(
        ProblemReport(
            problem="matrix multiplication (semiring)",
            sizes=sizes,
            rounds=rounds,
            paper_bound="O(n^{1/3})  [exp 0.333]",
            prior_bound="-- (naive O(n))",
        )
    )

    # -- matrix multiplication (ring), Theorem 1 / §2.2 ------------------ #
    sizes = _quick(scale, [49, 100, 144], [196, 256])
    rounds = []
    for n in sizes:
        s = rng.integers(-9, 10, (n, n), dtype=np.int64)
        t = rng.integers(-9, 10, (n, n), dtype=np.int64)
        clique = CongestedClique(n)
        bilinear_matmul(clique, s, t, default_algorithm(n))
        rounds.append(clique.rounds)
    reports.append(
        ProblemReport(
            problem="matrix multiplication (ring)",
            sizes=sizes,
            rounds=rounds,
            paper_bound=f"O(n^0.158) w/ Le Gall; Strassen target {RHO_IMPLEMENTED:.3f}",
            prior_bound="O(n^0.373) [Drucker et al., analytic]",
        )
    )

    # -- triangle counting vs the Dolev baseline ------------------------- #
    sizes = _quick(scale, [16, 49, 100], [196])
    ours, prior = [], []
    for n in sizes:
        g = gnp_random_graph(n, 0.3, seed=seed + n)
        ours.append(count_triangles(g, method="bilinear").rounds)
        prior.append(dolev_triangle_count(g).rounds)
    reports.append(
        ProblemReport(
            problem="triangle counting",
            sizes=sizes,
            rounds=ours,
            paper_bound=f"O(n^rho)  [target {RHO_IMPLEMENTED:.3f}]",
            prior_bound="O(n^{1/3}/log n) [Dolev et al., measured]",
            prior_rounds=prior,
        )
    )

    # -- 4-cycle detection: Theorem 4 vs the Dolev baseline -------------- #
    # Constant average degree keeps the detector in the interesting tiling
    # branch (dense graphs short-circuit through the 2-round pigeonhole).
    sizes = _quick(scale, [16, 36, 64, 100], [144, 196])
    ours, prior = [], []
    for n in sizes:
        g = bipartite_random_graph(n, 4.0 / n, seed=seed + n)
        ours.append(detect_four_cycles(g).rounds)
        prior.append(dolev_four_cycle_detect(g).rounds)
    reports.append(
        ProblemReport(
            problem="4-cycle detection",
            sizes=sizes,
            rounds=ours,
            paper_bound="O(1)  [exp 0.0]",
            prior_bound="O(n^{1/2}/log n) [Dolev et al., measured]",
            prior_rounds=prior,
        )
    )

    # -- 4-cycle counting ------------------------------------------------- #
    sizes = _quick(scale, [16, 49, 100], [196])
    rounds = []
    for n in sizes:
        g = gnp_random_graph(n, 0.3, seed=seed + 7 * n)
        rounds.append(count_four_cycles(g, method="bilinear").rounds)
    reports.append(
        ProblemReport(
            problem="4-cycle counting",
            sizes=sizes,
            rounds=rounds,
            paper_bound=f"O(n^rho)  [target {RHO_IMPLEMENTED:.3f}]",
            prior_bound="O(n^{1/2}/log n) [Dolev et al.]",
        )
    )

    # -- k-cycle detection (k = 5, fixed trial budget) -------------------- #
    sizes = _quick(scale, [16, 49], [100])
    rounds = []
    for n in sizes:
        g = planted_cycle_graph(n, 5, seed=seed + n, extra_edge_prob=0.5)
        res = detect_k_cycle(g, 5, trials=2, rng=np.random.default_rng(seed))
        rounds.append(res.rounds)
    reports.append(
        ProblemReport(
            problem="5-cycle detection (2 colourings)",
            sizes=sizes,
            rounds=rounds,
            paper_bound=f"2^O(k) n^rho log n  [growth target {RHO_IMPLEMENTED:.3f}]",
            prior_bound="O(n^{1-2/k}/log n) [Dolev et al.]",
            notes="fixed 2-colouring budget isolates the n-growth",
        )
    )

    # -- girth ------------------------------------------------------------ #
    sizes = _quick(scale, [16, 25, 36], [64])
    rounds = []
    for n in sizes:
        g = dense_small_girth_graph(n, seed=seed + n)
        res = girth_undirected(
            g, trials_per_k=8, rng=np.random.default_rng(seed + n)
        )
        rounds.append(res.rounds)
    reports.append(
        ProblemReport(
            problem="girth (undirected)",
            sizes=sizes,
            rounds=rounds,
            paper_bound="O~(n^rho)",
            prior_bound="-- (first algorithm)",
            notes="dense branch; trials capped at 8/length",
        )
    )

    # -- weighted directed APSP (exact, Corollary 6) ----------------------- #
    sizes = _quick(scale, [27, 64], [125])
    rounds = []
    for n in sizes:
        g = random_weighted_digraph(n, 0.3, 9, seed=seed + n)
        rounds.append(apsp_exact(g).rounds)
    reports.append(
        ProblemReport(
            problem="weighted directed APSP (exact)",
            sizes=sizes,
            rounds=rounds,
            paper_bound="O(n^{1/3} log n)  [exp ~0.333+]",
            prior_bound="-- (none)",
        )
    )

    # -- APSP with weighted diameter U (Corollary 8 workload) -------------- #
    sizes = _quick(scale, [16, 49], [100])
    rounds = []
    for n in sizes:
        g = random_weighted_digraph(n, 0.6, 3, seed=seed + n)
        rounds.append(apsp_bounded(g, 8).rounds)
    reports.append(
        ProblemReport(
            problem="weighted APSP, diameter U=8 (Lemma 19)",
            sizes=sizes,
            rounds=rounds,
            paper_bound="O(U n^rho)",
            prior_bound="-- (none)",
        )
    )

    # -- (1 + o(1))-approximate APSP (Theorem 9) --------------------------- #
    sizes = _quick(scale, [16], [49])
    rounds = []
    ratio = []
    for n in sizes:
        g = random_weighted_digraph(n, 0.4, 20, seed=seed + n)
        res = apsp_approx(g, delta=0.25)
        rounds.append(res.rounds)
        ratio.append(res.extras["ratio_bound"])
    reports.append(
        ProblemReport(
            problem="(1+o(1))-approx APSP (delta=0.25)",
            sizes=sizes,
            rounds=rounds,
            paper_bound="O(n^{rho+o(1)})",
            prior_bound="(2+o(1))-approx in O~(n^{1/2}) [Nanongkai, analytic]",
            extras={"ratio_bounds": ratio},
        )
    )

    # -- unweighted undirected APSP (Corollary 7, Seidel) ------------------ #
    sizes = _quick(scale, [16, 49, 100], [196])
    rounds = []
    for n in sizes:
        g = gnp_random_graph(n, 0.2, seed=seed + n)
        rounds.append(apsp_unweighted(g).rounds)
    reports.append(
        ProblemReport(
            problem="unweighted undirected APSP (Seidel)",
            sizes=sizes,
            rounds=rounds,
            paper_bound="O~(n^rho)",
            prior_bound="(2+o(1))-approx in O~(n^{1/2}) [Nanongkai, analytic]",
        )
    )
    return reports


def format_table1(reports: list[ProblemReport]) -> str:
    """Render the measured Table 1 as aligned text."""
    lines = [
        "=" * 100,
        "Table 1 (reproduced): measured round counts on the congested-clique simulator",
        f"paper rho = {RHO_PAPER:.5f} (Le Gall);  implemented rho = "
        f"{RHO_IMPLEMENTED:.5f} (Strassen)",
        "=" * 100,
    ]
    for rep in reports:
        lines.append(f"\n{rep.problem}")
        lines.append(f"  paper bound : {rep.paper_bound}")
        lines.append(f"  prior work  : {rep.prior_bound}")
        size_row = "  ".join(f"{n:>7d}" for n in rep.sizes)
        our_row = "  ".join(f"{r:>7d}" for r in rep.rounds)
        lines.append(f"  n           : {size_row}")
        lines.append(f"  rounds      : {our_row}")
        lines.append(f"  fitted exp  : {rep.fitted_exponent:+.3f}")
        if rep.prior_rounds is not None:
            prior_row = "  ".join(f"{r:>7d}" for r in rep.prior_rounds)
            lines.append(f"  prior rounds: {prior_row}")
            lines.append(f"  prior exp   : {rep.prior_fitted_exponent:+.3f}")
            at_max = rep.sizes.index(max(rep.sizes))
            ours, theirs = rep.rounds[at_max], rep.prior_rounds[at_max]
            if ours and theirs:
                lines.append(
                    f"  speedup at n={rep.sizes[at_max]}: "
                    f"{theirs / max(1, ours):.2f}x"
                )
        if rep.notes:
            lines.append(f"  notes       : {rep.notes}")
    lines.append("")
    return "\n".join(lines)


__all__ = ["ProblemReport", "run_table1", "format_table1"]
