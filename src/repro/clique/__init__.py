"""Congested-clique simulation substrate.

The paper's model: ``n`` nodes, a complete communication graph, synchronous
rounds, one ``O(log n)``-bit message per ordered node pair per round.  This
subpackage provides the metered simulator (:class:`CongestedClique`), the
cost accounting, and the closed-form round bills of the routing theorem
(Lenzen routing) that every algorithm in the reproduction runs on.
"""

from repro.clique.accounting import CostMeter, PhaseCost
from repro.clique.arena import ExchangeArena
from repro.clique.executor import Executor
from repro.clique.messages import (
    default_word_bits,
    int_bits,
    words_for_array,
    words_for_value,
)
from repro.clique.model import CongestedClique, or_broadcast, sum_broadcast

__all__ = [
    "CongestedClique",
    "CostMeter",
    "PhaseCost",
    "ExchangeArena",
    "Executor",
    "default_word_bits",
    "int_bits",
    "words_for_array",
    "words_for_value",
    "or_broadcast",
    "sum_broadcast",
]
