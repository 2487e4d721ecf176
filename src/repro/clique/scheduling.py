"""Closed-form round bills for the congested clique.

The model constraint is: in one round, each ordered pair of nodes exchanges at
most one word.  Every exchange is billed by one of three closed forms.

* **Direct** exchanges ship every word straight from source to destination;
  the round count is the maximum, over ordered pairs, of the words that pair
  must carry.

* **Relayed** exchanges follow the routing theorem of Lenzen [46] (and the
  oblivious variant of Dolev et al. [24]) used throughout the paper: if every
  node sends at most ``L`` words and receives at most ``L`` words, all words
  are delivered in ``2 * ceil(L / n)`` rounds.  The construction behind the
  bill:

  1. View the words as a bipartite multigraph (senders vs. receivers, one
     edge per word) of maximum degree ``L``.
  2. Edge-colour it into exactly ``L`` matchings (Koenig's theorem).
  3. Group the matchings into batches of ``n``.  Within a batch, the matching
     with batch-local index ``i`` is relayed through intermediate node ``i``:
     in the first round of the batch every source forwards its word to the
     intermediate, in the second round the intermediate forwards it to the
     destination.  Because each matching touches every node at most once on
     each side, both rounds respect the one-word-per-pair constraint.

  The simulator charges the closed form.  The test suite builds the schedule
  itself (``tests/schedule_reference.py``) and certifies that every routed
  charge equals the length of a valid schedule.

* **Broadcasts** let every node send the same word to all others in one
  round; ``w`` words per node take ``max(w)`` rounds.
"""

from __future__ import annotations

import math

import numpy as np


def direct_rounds(pair_words: np.ndarray) -> int:
    """Rounds to ship a demand with no relaying: the max per-pair word count.

    ``pair_words`` holds the words each ordered pair of distinct nodes
    carries, in any order; pairs that carry nothing may be listed as zeros.
    """
    return int(pair_words.max()) if pair_words.size else 0


def relay_rounds(max_load: int, n: int) -> int:
    """Lenzen's relay bill: ``2 * ceil(L / n)`` rounds.

    ``max_load`` is the maximum over nodes of that node's total sent or
    received words; the module docstring gives the construction that
    achieves the bill.
    """
    if max_load <= 0:
        return 0
    if n <= 1:
        raise ValueError("relay routing needs at least 2 nodes")
    return 2 * math.ceil(max_load / n)


def broadcast_rounds(words_per_node: list[int]) -> int:
    """Rounds for every node to broadcast its words to all others."""
    if not words_per_node:
        return 0
    return max(words_per_node)


#: Knuth's multiplicative-hash constant; spreads consecutive piece indices
#: over the relay ring so one corrupt node does not hit a contiguous run of
#: pieces.
_RELAY_STRIDE = 2654435761


def disjoint_relays(pieces: int, copies: int, n: int, salt: int = 0) -> np.ndarray:
    """Relay assignment for replicated oblivious routing.

    Returns a ``(pieces, copies)`` int64 array: copy ``j`` of piece ``i``
    traverses intermediate node ``(base_i + j) mod n``.  This mirrors the
    relay construction in the module docstring -- within a batch, the
    matching with batch-local slot ``i`` is relayed through node ``i``, so
    consecutive slots mean distinct intermediates.  Assigning the ``copies``
    replicas of a piece to consecutive slots therefore puts them on
    pairwise-*distinct* relay nodes (requires ``copies <= n``), which is the
    disjointness the majority decode's support threshold counts on: an
    adversary corrupting ``t`` nodes in an exchange touches at most ``t`` of
    a piece's copies.

    The assignment is a pure function of ``(pieces, copies, n, salt)`` --
    oblivious routing is input-independent and public, so fault plans and
    decoders agree on it without communication.  ``salt`` varies the base
    permutation per exchange (retries re-route through fresh relays).
    """
    if n < 1:
        raise ValueError(f"relay assignment needs n >= 1, got {n}")
    if not 1 <= copies <= n:
        raise ValueError(
            f"need 1 <= copies <= n = {n} pairwise-distinct relays per "
            f"piece, got copies = {copies}"
        )
    if pieces < 0:
        raise ValueError(f"piece count must be non-negative, got {pieces}")
    base = (
        np.arange(pieces, dtype=np.int64) * _RELAY_STRIDE
        + np.int64(salt % n) * 40503
    ) % n
    return (base[:, None] + np.arange(copies, dtype=np.int64)[None, :]) % n


__all__ = [
    "direct_rounds",
    "relay_rounds",
    "broadcast_rounds",
    "disjoint_relays",
]
