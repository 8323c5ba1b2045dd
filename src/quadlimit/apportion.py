"""Classical seat-apportionment methods over state populations.

Four methods are provided: Hamilton/Vinton (largest remainders), Jefferson
(greatest divisors), Webster (major fractions) and Huntington-Hill (equal
proportions). All arithmetic is exact: Hamilton's quotas are rationals,
and each divisor method's priority is an integer (numerator, denominator)
pair ranked by cross-multiplication. Huntington-Hill ranks the squares of its
priorities, so no result ever depends on float rounding or square roots.
The divisor methods keep one entry per state in a heap, so a house of h
seats over n states costs O(h log n) comparisons.

Ties are broken in favour of the larger population, then by label order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

class ApportionmentError(ValueError):
    """Raised for infeasible or malformed apportionment inputs."""


@dataclass(frozen=True)
class StateRecord:
    label: str
    population: int


@dataclass(frozen=True)
class ApportionmentResult:
    seats: dict[str, int]  # per label, summing to the house size
    # Exact quotas, Hamilton only.
    quotas: dict[str, Fraction] | None = None
    # (award round, label) log, divisor methods only.
    priority_trace: tuple[tuple[int, str], ...] | None = None


def _check_input(states: list[StateRecord], house_size: int) -> None:
    if not states:
        raise ApportionmentError("at least one state is required")
    if house_size < 1:
        raise ApportionmentError(f"house size must be >= 1, got {house_size}")
    labels = [s.label for s in states]
    if len(set(labels)) != len(labels):
        raise ApportionmentError("state labels must be unique")
    for s in states:
        if s.population < 1:
            raise ApportionmentError(f"state '{s.label}' population must be >= 1")


def hamilton(states: list[StateRecord], house_size: int) -> ApportionmentResult:
    """Largest-remainder apportionment.

    Each state first receives the floor of its exact quota
    (population * house_size / total); leftover seats go to the largest
    fractional remainders. The result always satisfies the quota rule.
    """
    _check_input(states, house_size)
    total = sum(s.population for s in states)
    quotas = {s.label: Fraction(s.population * house_size, total) for s in states}
    seats = {s.label: int(quotas[s.label]) for s in states}
    leftover = house_size - sum(seats.values())
    by_remainder = sorted(
        states,
        key=lambda s: (-(quotas[s.label] - seats[s.label]), -s.population, s.label),
    )
    for s in by_remainder[:leftover]:
        seats[s.label] += 1
    return ApportionmentResult(seats, quotas=quotas)


@dataclass(slots=True)
class _Claim:
    """A state's bid for its next seat; the heap's smallest claim wins.

    Claims order by priority num/den descending (compared as num * den'
    against num' * den, exactly), then population descending, then label
    ascending. Labels are unique, so the order is total.
    """

    num: int
    den: int
    population: int
    label: str

    def __lt__(self, other: "_Claim") -> bool:
        lhs, rhs = self.num * other.den, other.num * self.den
        if lhs != rhs:
            return lhs > rhs
        if self.population != other.population:
            return self.population > other.population
        return self.label < other.label


def _highest_averages(method: str, states: list[StateRecord], house_size: int,
                      seed: int, priority: Callable[[int, int], tuple[int, int]]
                      ) -> ApportionmentResult:
    """Award seats one at a time to the state with the highest priority.

    ``priority(population, seats_so_far)`` returns a (numerator, denominator)
    pair of integers, denominator positive, whose ratio orders states the
    same way as the method's priority value.
    """
    _check_input(states, house_size)
    seats = {s.label: seed for s in states}
    rounds = house_size - seed * len(states)
    if rounds < 0:
        raise ApportionmentError(
            f"{method} needs at least {seed * len(states)} seats "
            f"for {len(states)} states, got {house_size}"
        )
    heap = [_Claim(*priority(s.population, seed), s.population, s.label)
            for s in states]
    heapq.heapify(heap)
    trace = []
    for rnd in range(1, rounds + 1):
        best = heap[0]
        seats[best.label] += 1
        trace.append((rnd, best.label))
        heapq.heapreplace(heap, _Claim(*priority(best.population, seats[best.label]),
                                       best.population, best.label))
    return ApportionmentResult(seats, priority_trace=tuple(trace))


def jefferson(states: list[StateRecord], house_size: int) -> ApportionmentResult:
    """Greatest-divisors apportionment: priority population/(s+1).

    Equivalent to picking a divisor d such that the rounded-down quotients
    sum to the house size.
    """
    return _highest_averages("jefferson", states, house_size, seed=0,
                             priority=lambda pop, s: (pop, s + 1))


def webster(states: list[StateRecord], house_size: int) -> ApportionmentResult:
    """Major-fractions apportionment: priority population/(2s+1).

    Equivalent to picking a divisor d such that the half-up-rounded
    quotients sum to the house size.
    """
    return _highest_averages("webster", states, house_size, seed=0,
                             priority=lambda pop, s: (pop, 2 * s + 1))


def huntington_hill(states: list[StateRecord], house_size: int) -> ApportionmentResult:
    """Equal-proportions apportionment: every state is seeded one seat, then
    priority population/sqrt(s*(s+1)) awards the rest.

    Priorities are ranked by their squares, population^2/(s*(s+1)), which
    keeps the ranking exact in integer arithmetic.
    """
    return _highest_averages("huntington-hill", states, house_size, seed=1,
                             priority=lambda pop, s: (pop * pop, s * (s + 1)))


METHODS: dict[str, Callable[[list[StateRecord], int], ApportionmentResult]] = {
    "hamilton": hamilton,
    "jefferson": jefferson,
    "webster": webster,
    "huntington-hill": huntington_hill,
}


def compare_methods(states: list[StateRecord], house_size: int) -> dict[str, ApportionmentResult]:
    """All four methods on the same input, keyed by method name."""
    return {name: method(states, house_size) for name, method in METHODS.items()}


def parse_populations(spec: str) -> list[StateRecord]:
    """Parse an inline ``A=2560,B=3315`` population spec."""
    states = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        label, eq, value = item.partition("=")
        if not eq or not label.strip():
            raise ApportionmentError(f"expected LABEL=POPULATION, got {item!r}")
        try:
            population = int(value)
        except ValueError:
            raise ApportionmentError(f"non-integer population in {item!r}") from None
        states.append(StateRecord(label=label.strip(), population=population))
    if not states:
        raise ApportionmentError("no states given")
    _check_input(states, house_size=1)
    return states


def parse_populations_file(text: str) -> list[StateRecord]:
    """Parse a two-column ``label population`` file; ``#`` lines are comments."""
    states = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ApportionmentError(
                f"line {lineno}: expected 'label population', got {line!r}"
            )
        try:
            population = int(parts[1])
        except ValueError:
            raise ApportionmentError(f"line {lineno}: non-integer population {parts[1]!r}") from None
        states.append(StateRecord(label=parts[0], population=population))
    if not states:
        raise ApportionmentError("no states given")
    _check_input(states, house_size=1)
    return states
