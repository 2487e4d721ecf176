"""Explicit Lenzen relay schedules, and a certifier for every charged bill.

The simulator bills a routed exchange the closed form ``2 * ceil(L / n)``
rounds, where ``L`` is the largest per-node send or receive load
(:func:`repro.clique.scheduling.relay_rounds`).  This module builds the
schedule behind that bill, one word per ordered pair per round:

1. The exchange's words form a bipartite multigraph, senders against
   receivers, of maximum degree ``L`` (self-addressed pieces are local moves
   and drop out).
2. :func:`colour_into_matchings` edge-colours it into exactly ``L``
   matchings, as Koenig's theorem allows.  It pads the graph to an
   ``L``-regular one, then splits recursively: at even degree it halves
   every pair's count and Euler-splits only the odd remainders; at odd
   degree it first peels one perfect matching off (Hall's theorem says one
   exists), found by augmenting paths on the support graph.
3. :func:`relay_schedule` groups the matchings into batches of ``n`` and
   relays the batch's ``i``-th matching through node ``i``: two rounds per
   batch, so ``2 * ceil(L / n)`` rounds in all.

:class:`ScheduleCertifier` is a meter-stack observer that checks every
charge a clique makes against an explicit schedule: a routed bill must
equal the length of a valid relay schedule of the exchange, a direct bill
the largest per-pair word count, and a broadcast bill the widest payload.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass

import numpy as np

from repro.clique.accounting import PhaseCost, PhaseTraffic

# A demand maps an ordered node pair (src, dst) to a word count.
Demand = dict[tuple[int, int], int]
Matching = list[tuple[int, int]]


class ScheduleError(AssertionError):
    """A colouring, schedule or charged bill broke the model's constraints."""


def demand_of(traffic: PhaseTraffic) -> Demand:
    """Words per ordered pair of one charged exchange: the matrix's non-zero
    entries (its diagonal is zero, as self pieces are local moves)."""
    src, dst = np.nonzero(traffic.pairs)
    words = traffic.pairs[src, dst]
    return dict(zip(zip(src.tolist(), dst.tolist()), words.tolist()))


def max_degree(demand: Demand, n: int) -> int:
    """The largest per-node send or receive load of a demand."""
    send = [0] * n
    recv = [0] * n
    for (u, v), c in demand.items():
        send[u] += c
        recv[v] += c
    return max(max(send), max(recv))


def _pad_to_regular(demand: Demand, n: int, degree: int) -> Demand:
    """Dummy edges giving every node in- and out-degree exactly ``degree``.

    Returns the dummy demand only.  Total left deficiency equals total
    right deficiency, so a greedy two-pointer pairing always succeeds.  A
    dummy edge may join a node to itself (the two sides are distinct
    copies); dummies are stripped before any matching is returned.
    """
    out_deg = [0] * n
    in_deg = [0] * n
    for (u, v), c in demand.items():
        out_deg[u] += c
        in_deg[v] += c
    left = [[degree - d, u] for u, d in enumerate(out_deg) if d < degree]
    right = [[degree - d, v] for v, d in enumerate(in_deg) if d < degree]
    dummies: Demand = defaultdict(int)
    li = ri = 0
    while li < len(left) and ri < len(right):
        take = min(left[li][0], right[ri][0])
        dummies[(left[li][1], right[ri][1])] += take
        left[li][0] -= take
        right[ri][0] -= take
        li += left[li][0] == 0
        ri += right[ri][0] == 0
    if li < len(left) or ri < len(right):
        raise ScheduleError("deficiency totals must match on both sides")
    return dict(dummies)


def _euler_split(n: int, edges: list[tuple[int, int]]) -> tuple[Matching, Matching]:
    """Split a bipartite graph whose degrees are all even into two halves.

    ``edges`` are ``(left, right)`` pairs.  Every vertex ends up with
    exactly half its degree in each half: pair up the edges at every
    vertex, walk the closed trails this pairing links the edges into, and
    deal each trail's edges alternately.  A trail leaves every left vertex
    on a dealt-first edge and every right vertex on a dealt-second one, so
    the two edges of each pair land in different halves.
    """
    incident: list[list[int]] = [[] for _ in range(2 * n)]
    for eid, (u, v) in enumerate(edges):
        incident[u].append(eid)
        incident[n + v].append(eid)
    # partner[side][e]: the edge paired with e at its left (0) or right (1) end.
    partner = ([0] * len(edges), [0] * len(edges))
    for x, ids in enumerate(incident):
        side = partner[x >= n]
        for a, b in zip(ids[::2], ids[1::2]):
            side[a], side[b] = b, a
    dealt = [False] * len(edges)
    halves: tuple[Matching, Matching] = ([], [])
    for start in range(len(edges)):
        eid, half = start, 0
        while not dealt[eid]:
            dealt[eid] = True
            halves[half].append(edges[eid])
            # A first-half edge is walked left to right, so the trail
            # continues from its right end, and vice versa.
            eid = partner[1 - half][eid]
            half = 1 - half
    return halves


def _perfect_matching(counts: Demand, n: int) -> Matching:
    """A perfect matching of a regular bipartite multigraph's support.

    Greedy first, then one breadth-first augmenting-path search per node
    the greedy pass left unmatched.  A regular bipartite graph satisfies
    Hall's condition, so every search succeeds.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in counts:
        adj[u].append(v)
    mate_left = [-1] * n
    mate_right = [-1] * n
    for u in range(n):
        for v in adj[u]:
            if mate_right[v] < 0:
                mate_left[u], mate_right[v] = v, u
                break
    for root in range(n):
        if mate_left[root] >= 0:
            continue
        # parent[v] = the left node that reached right node v.
        parent = [-1] * n
        queue = deque([root])
        free = -1
        while queue and free < 0:
            u = queue.popleft()
            for v in adj[u]:
                if parent[v] >= 0:
                    continue
                parent[v] = u
                if mate_right[v] < 0:
                    free = v
                    break
                queue.append(mate_right[v])
        if free < 0:
            raise ScheduleError("regular bipartite graph without a perfect matching")
        v = free
        while v >= 0:
            u = parent[v]
            next_v = mate_left[u]
            mate_left[u], mate_right[v] = v, u
            v = next_v
    return [(u, mate_left[u]) for u in range(n)]


def _colour_regular(counts: Demand, n: int, degree: int) -> list[Matching]:
    """Split a ``degree``-regular bipartite multigraph into perfect matchings.

    ``counts`` maps each pair to its edge multiplicity; the result holds
    exactly ``degree`` perfect matchings.
    """
    if degree == 0:
        return []
    if degree == 1:
        return [list(counts)]
    if degree % 2:
        peeled = _perfect_matching(counts, n)
        rest = dict(counts)
        for pair in peeled:
            rest[pair] -= 1
            if not rest[pair]:
                del rest[pair]
        return [peeled] + _colour_regular(rest, n, degree - 1)
    paired = {pair: c // 2 for pair, c in counts.items() if c >= 2}
    odd = [pair for pair, c in counts.items() if c % 2]
    if not odd:
        # Both halves are ``paired``: colour it once, use it twice.
        half = _colour_regular(paired, n, degree // 2)
        return half + half
    matchings: list[Matching] = []
    for odd_half in _euler_split(n, odd):
        half = dict(paired)
        for pair in odd_half:
            half[pair] = half.get(pair, 0) + 1
        matchings += _colour_regular(half, n, degree // 2)
    return matchings


def colour_into_matchings(demand: Demand, n: int) -> list[Matching]:
    """Edge-colour a demand into exactly ``max_degree(demand)`` matchings.

    Each matching is a list of ``(src, dst)`` words in which every node
    appears at most once as a source and at most once as a destination;
    every word of the demand lies in exactly one matching.
    """
    demand = {pair: c for pair, c in demand.items() if c > 0}
    if not demand:
        return []
    degree = max_degree(demand, n)
    counts = dict(demand)
    for pair, c in _pad_to_regular(demand, n, degree).items():
        counts[pair] = counts.get(pair, 0) + c
    # A pair carrying c real words lies in c of its matchings' slots; the
    # first c of them are real, the rest dummies.
    real_left = dict(demand)
    matchings = []
    for perfect in _colour_regular(counts, n, degree):
        matching = []
        for pair in perfect:
            if real_left.get(pair, 0) > 0:
                real_left[pair] -= 1
                matching.append(pair)
        matchings.append(matching)
    return matchings


def validate_matchings(matchings: list[Matching], demand: Demand) -> None:
    """Raise unless the matchings are proper and cover the demand exactly."""
    seen: Demand = defaultdict(int)
    for matching in matchings:
        srcs: set[int] = set()
        dsts: set[int] = set()
        for u, v in matching:
            if u in srcs:
                raise ScheduleError(f"source {u} repeated in a matching")
            if v in dsts:
                raise ScheduleError(f"destination {v} repeated in a matching")
            srcs.add(u)
            dsts.add(v)
            seen[(u, v)] += 1
    if dict(seen) != {pair: c for pair, c in demand.items() if c > 0}:
        raise ScheduleError("colouring does not cover the demand exactly")


@dataclass(frozen=True)
class RelaySchedule:
    """A relay schedule: ``hops[r]`` lists the ``(sender, receiver)`` words
    of round ``r`` (a word that needs a relay appears as two hops)."""

    hops: list[Matching]

    @property
    def rounds(self) -> int:
        return len(self.hops)


def relay_schedule(demand: Demand, n: int) -> RelaySchedule:
    """Build and validate the Lenzen relay schedule of a demand."""
    matchings = colour_into_matchings(demand, n)
    validate_matchings(matchings, demand)
    hops: list[Matching] = []
    for start in range(0, len(matchings), n):
        to_relay: Matching = []
        from_relay: Matching = []
        for relay, matching in enumerate(matchings[start : start + n]):
            for u, v in matching:
                if u != relay:
                    to_relay.append((u, relay))
                if relay != v:
                    from_relay.append((relay, v))
        hops += [to_relay, from_relay]
    schedule = RelaySchedule(hops)
    validate_relay_schedule(schedule)
    return schedule


def validate_relay_schedule(schedule: RelaySchedule) -> None:
    """Raise if a round ships two words across one ordered pair, or a self hop."""
    for rnd, round_hops in enumerate(schedule.hops):
        seen: set[tuple[int, int]] = set()
        for pair in round_hops:
            if pair[0] == pair[1]:
                raise ScheduleError(f"round {rnd}: self hop {pair}")
            if pair in seen:
                raise ScheduleError(f"round {rnd}: ordered pair {pair} used twice")
            seen.add(pair)


class ScheduleCertifier:
    """Meter-stack observer that certifies every charged round bill.

    Register it with ``clique.meters.add_observer(ScheduleCertifier())``.
    Every charge must arrive with its :class:`PhaseTraffic` and an ``int``
    round bill, and the bill must equal:

    * ``route``: the length of the validated relay schedule of the
      exchange's demand;
    * ``send`` and ``broadcast``: the largest word count any ordered pair
      carries, the matrix's largest entry (for a broadcast, the widest
      payload).

    A failed check raises :class:`ScheduleError`.  ``certified`` counts the
    certified charges of each kind, so a test can assert coverage.
    """

    needs_traffic = True

    def __init__(self) -> None:
        self.certified: Counter[str] = Counter()
        # Engines re-emit the same demand on every squaring: build each
        # distinct demand's schedule once.
        self._relay_rounds: dict[tuple, int] = {}

    @property
    def total(self) -> int:
        """Charges certified so far, over all kinds."""
        return sum(self.certified.values())

    def observe(self, cost: PhaseCost, traffic: PhaseTraffic | None = None) -> None:
        where = f"phase {cost.phase!r}"
        if traffic is None:
            raise ScheduleError(f"{where}: charged without traffic")
        if type(cost.rounds) is not int:
            raise ScheduleError(
                f"{where}: round bill {cost.rounds!r} is a "
                f"{type(cost.rounds).__name__}, not an int"
            )
        if traffic.kind == "route":
            demand = demand_of(traffic)
            key = (traffic.n, *demand.items())
            if key not in self._relay_rounds:
                self._relay_rounds[key] = relay_schedule(demand, traffic.n).rounds
            expected = self._relay_rounds[key]
        elif traffic.kind in ("send", "broadcast"):
            expected = int(traffic.pairs.max())
        else:
            raise ScheduleError(f"{where}: unknown exchange kind {traffic.kind!r}")
        if cost.rounds != expected:
            raise ScheduleError(
                f"{where}: charged {cost.rounds} rounds, the {traffic.kind} "
                f"schedule takes {expected}"
            )
        self.certified[traffic.kind] += 1


def certify(clique) -> ScheduleCertifier:
    """Attach a fresh :class:`ScheduleCertifier` to ``clique``'s meter stack."""
    return clique.meters.add_observer(ScheduleCertifier())
