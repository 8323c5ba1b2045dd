import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlimit import ApportionmentError, StateRecord, compare_methods, \
    hamilton, huntington_hill, jefferson, webster
from quadlimit.apportion import METHODS, parse_populations, parse_populations_file

import helpers
from oracles import hamilton_rational_oracle, highest_averages_scan, \
    huntington_hill_decimal_oracle, jefferson_divisor_oracle, webster_divisor_oracle

SAMPLE = [StateRecord("A", 2560), StateRecord("B", 3315),
          StateRecord("C", 995), StateRecord("D", 5012)]


def seats_of(result):
    return result.seats


instances = st.builds(
    helpers.random_apportionment_instance,
    st.randoms(use_true_random=False),
)


class TestHamilton:
    def test_sample_dataset(self):
        expected = hamilton_rational_oracle(
            [(s.label, s.population) for s in SAMPLE], 20)
        assert expected == {"A": 4, "B": 6, "C": 2, "D": 8}
        result = hamilton(SAMPLE, 20)
        assert result.seats == expected
        assert sum(result.seats.values()) == 20

    def test_sample_quotas_exact(self):
        result = hamilton(SAMPLE, 20)
        total = sum(s.population for s in SAMPLE)
        assert total == 11882
        assert result.quotas["A"] == Fraction(2560 * 20, total)
        assert int(result.quotas["D"]) == 8

    def test_single_state_identity(self):
        result = hamilton([StateRecord("A", 123)], 7)
        assert result.seats == {"A": 7}

    def test_equal_populations_split_evenly(self):
        states = [StateRecord(lab, 1000) for lab in "ABCD"]
        assert hamilton(states, 20).seats == {lab: 5 for lab in "ABCD"}

    def test_empty_rejected(self):
        with pytest.raises(ApportionmentError):
            hamilton([], 10)

    @given(instances)
    @settings(max_examples=60)
    def test_quota_rule_and_house_size(self, instance):
        states, seats = instance
        result = hamilton(states, seats)
        assert sum(result.seats.values()) == seats
        for s in states:
            quota = result.quotas[s.label]
            assert quota.numerator // quota.denominator <= result.seats[s.label] \
                <= -((-quota.numerator) // quota.denominator)


class TestJefferson:
    def test_sample_dataset(self):
        assert jefferson(SAMPLE, 20).seats == {"A": 4, "B": 6, "C": 1, "D": 9}

    def test_single_state(self):
        assert jefferson([StateRecord("A", 5)], 9).seats == {"A": 9}

    def test_matches_divisor_search(self):
        rng = random.Random(2024)
        for _ in range(60):
            states, seats = helpers.random_apportionment_instance(rng, 5, 30)
            got = jefferson(states, seats).seats
            want = jefferson_divisor_oracle(
                [(s.label, s.population) for s in states], seats)
            assert got == want

    def test_priority_trace_covers_every_seat(self):
        result = jefferson(SAMPLE, 20)
        assert len(result.priority_trace) == 20
        awarded = {}
        for rnd, label in result.priority_trace:
            awarded[label] = awarded.get(label, 0) + 1
        assert awarded == result.seats


class TestWebster:
    def test_sample_dataset(self):
        assert webster(SAMPLE, 20).seats == {"A": 4, "B": 6, "C": 2, "D": 8}

    def test_equal_populations(self):
        states = [StateRecord(lab, 777) for lab in "ABCD"]
        assert webster(states, 20).seats == {lab: 5 for lab in "ABCD"}

    def test_matches_divisor_search(self):
        rng = random.Random(2025)
        for _ in range(60):
            states, seats = helpers.random_apportionment_instance(rng, 5, 30)
            got = webster(states, seats).seats
            want = webster_divisor_oracle(
                [(s.label, s.population) for s in states], seats)
            assert got == want


class TestHuntingtonHill:
    def test_sample_dataset(self):
        assert huntington_hill(SAMPLE, 20).seats == {"A": 4, "B": 6, "C": 2, "D": 8}

    def test_house_equals_state_count_seeds_only(self):
        states = [StateRecord(lab, (i + 1) * 100) for i, lab in enumerate("ABCDE")]
        assert huntington_hill(states, 5).seats == {lab: 1 for lab in "ABCDE"}

    def test_infeasible_house(self):
        with pytest.raises(ApportionmentError, match="at least"):
            huntington_hill(SAMPLE, 3)

    def test_every_state_keeps_a_seat(self):
        states = [StateRecord("tiny", 1), StateRecord("huge", 10_000_000)]
        result = huntington_hill(states, 50)
        assert result.seats["tiny"] >= 1
        assert sum(result.seats.values()) == 50

    def test_matches_decimal_oracle(self):
        rng = random.Random(2026)
        for _ in range(60):
            states, seats = helpers.random_apportionment_instance(rng, 6, 40)
            got = huntington_hill(states, seats).seats
            want = huntington_hill_decimal_oracle(
                [(s.label, s.population) for s in states], seats)
            assert got == want


class TestTieBreaking:
    def test_equal_priorities_prefer_larger_population(self):
        # 200/(s+1) ties 100/(s+1) at s=1 vs s=0 repeatedly; the larger
        # state must win each tied award.
        states = [StateRecord("small", 100), StateRecord("big", 200)]
        result = jefferson(states, 3)
        assert result.seats == {"big": 2, "small": 1}

    def test_equal_everything_prefers_label_order(self):
        states = [StateRecord("z", 100), StateRecord("a", 100)]
        assert jefferson(states, 1).seats == {"a": 1, "z": 0}
        assert jefferson(states, 3).seats == {"a": 2, "z": 1}

    def test_deterministic_across_input_order(self):
        fwd = [StateRecord(lab, p) for lab, p in
               [("a", 300), ("b", 300), ("c", 300)]]
        rev = list(reversed(fwd))
        for fn in METHODS.values():
            assert fn(fwd, 7).seats == fn(rev, 7).seats


class TestDivisorProperties:
    @given(instances, st.integers(2, 9))
    @settings(max_examples=60)
    def test_scale_invariance(self, instance, factor):
        states, seats = instance
        scaled = [StateRecord(s.label, s.population * factor) for s in states]
        for fn in (jefferson, webster, huntington_hill):
            assert fn(states, seats).seats == fn(scaled, seats).seats

    @given(instances)
    @settings(max_examples=60)
    def test_house_monotonicity(self, instance):
        states, seats = instance
        for fn in (jefferson, webster, huntington_hill):
            before = fn(states, seats).seats
            after = fn(states, seats + 1).seats
            diffs = {lab: after[lab] - before[lab] for lab in before}
            assert sorted(diffs.values()) == [0] * (len(states) - 1) + [1]

    @given(instances)
    @settings(max_examples=60)
    def test_house_size_always_exact(self, instance):
        states, seats = instance
        for name, fn in METHODS.items():
            assert sum(fn(states, seats).seats.values()) == seats


@st.composite
def divisor_instances(draw):
    """States and a house size, weighted towards tied priorities."""
    pops = draw(st.one_of(
        # Proportional populations collide across states at different seat
        # counts: 6/1 = 12/2 = 24/4 = 36/6.
        st.lists(st.sampled_from([6, 12, 24, 36]), min_size=1, max_size=8),
        # Equal populations tie at every equal seat count.
        st.tuples(st.integers(1, 10**6), st.integers(1, 8)).map(lambda t: [t[0]] * t[1]),
        st.lists(st.integers(1, 10**12), min_size=1, max_size=8),
    ))
    labels = draw(st.lists(st.text("abcXYZ", min_size=1, max_size=3),
                           min_size=len(pops), max_size=len(pops), unique=True))
    house = draw(st.integers(len(pops), 4 * len(pops) + 20))
    return [StateRecord(lab, p) for lab, p in zip(labels, pops)], house


class TestHeapMatchesScan:
    @given(divisor_instances())
    @example(([StateRecord("d", 6), StateRecord("c", 12), StateRecord("b", 24),
               StateRecord("a", 36)], 30))
    @example(([StateRecord(lab, 500) for lab in "zyxw"], 17))
    @settings(max_examples=200)
    def test_seats_and_trace_match_full_scan(self, instance):
        states, house = instance
        pairs = [(s.label, s.population) for s in states]
        for name in ("jefferson", "webster", "huntington-hill"):
            result = METHODS[name](states, house)
            assert (result.seats, result.priority_trace) \
                == highest_averages_scan(name, pairs, house)

    def test_huntington_hill_2000_states_20000_seats_under_2s(self):
        rng = random.Random(2000)
        states = [StateRecord(f"S{i:04d}", rng.randint(1, 10**7)) for i in range(2000)]
        start = time.perf_counter()
        result = huntington_hill(states, 20_000)
        assert time.perf_counter() - start < 2.0
        assert sum(result.seats.values()) == 20_000
        assert min(result.seats.values()) >= 1


class TestCompareMethods:
    def test_sample_matches_individual_calls(self):
        table = compare_methods(SAMPLE, 20)
        assert list(table) == ["hamilton", "jefferson", "webster",
                               "huntington-hill"]
        assert table["hamilton"].seats == hamilton(SAMPLE, 20).seats
        assert table["jefferson"].seats == jefferson(SAMPLE, 20).seats
        assert table["webster"].seats == webster(SAMPLE, 20).seats
        assert table["huntington-hill"].seats == huntington_hill(SAMPLE, 20).seats

    @pytest.mark.parametrize("name", METHODS)
    def test_house_size_below_one(self, name):
        with pytest.raises(ApportionmentError, match="^house size must be >= 1, got 0$"):
            METHODS[name](SAMPLE, 0)

    def test_single_state_all_methods_give_house(self):
        table = compare_methods([StateRecord("only", 42)], 13)
        assert all(r.seats == {"only": 13} for r in table.values())


class TestPopulationParsing:
    def test_inline(self):
        states = parse_populations("A=2560, B=3315,C=995,D=5012")
        assert states == SAMPLE

    def test_inline_errors(self):
        with pytest.raises(ApportionmentError, match="LABEL=POPULATION"):
            parse_populations("A2560")
        with pytest.raises(ApportionmentError, match="non-integer"):
            parse_populations("A=x")
        with pytest.raises(ApportionmentError, match="unique"):
            parse_populations("A=1,A=2")
        with pytest.raises(ApportionmentError, match=">= 1"):
            parse_populations("A=0")

    def test_inline_empty(self):
        with pytest.raises(ApportionmentError, match="^no states given$"):
            parse_populations("")

    def test_file_format(self):
        text = "# populations\nA 2560\nB 3315\n\nC 995\nD 5012\n"
        assert parse_populations_file(text) == SAMPLE

    def test_file_errors(self):
        with pytest.raises(ApportionmentError, match="line 1"):
            parse_populations_file("A 1 2\n")
        with pytest.raises(ApportionmentError, match="no states"):
            parse_populations_file("# empty\n")
