"""The two-letter substitution model and its bridge to the covering rows."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxrank2 import (
    ALPHA,
    BETA,
    TAU,
    ExpansionTooLarge,
    Substitution,
    UsageError,
    apply_word,
    circuit_length,
    commute_check,
    compose,
    conjugation_identity,
    expansion_cap,
    factor_language,
    gen_substitution_family,
    iterate,
    languages_equal,
    substitution_bridge,
    time_word,
)


def test_named_substitutions():
    assert TAU.rules == {"0": "001", "1": "1"}
    assert ALPHA.rules == {"0": "0010011", "1": "1"}
    assert BETA.rules == {"0": "1001001", "1": "1"}


def test_tau_squared_is_alpha():
    assert apply_word(TAU, apply_word(TAU, "0")) == "0010011"
    assert compose(TAU, TAU).rules == ALPHA.rules


def test_alpha_beta_commute():
    assert commute_check(ALPHA, BETA) is True


def test_commute_check_detects_failure():
    other = Substitution(rules={"0": "01", "1": "0"})
    assert commute_check(other, BETA) is False


def test_conjugation_identity_holds_in_required_range():
    for k in range(1, 5):
        for ell in range(k + 1, k + 6):
            assert conjugation_identity(k, ell) is True


def test_conjugation_identity_stops_before_building_past_the_cap():
    cap = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionTooLarge):
            conjugation_identity(11, 12, cap=cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * cap


def test_conjugation_identity_rejects_bad_exponents():
    with pytest.raises(UsageError):
        conjugation_identity(3, 3)
    with pytest.raises(UsageError):
        conjugation_identity(0, 2)


def test_iterate_lengths_match_circuit_lengths():
    spec = gen_substitution_family(depth=6)
    for k in range(1, 7):
        assert len(iterate(BETA, "0", k)) == circuit_length(spec, k + 1)


def test_time_rows_are_beta_iterates_relettered():
    spec = gen_substitution_family(depth=6)
    for m in range(2, 7):
        row = time_word(spec, m, 1).replace("E", "1").replace("C", "0")
        assert row == iterate(BETA, "0", m - 1)


def test_factor_language_small_lengths():
    lang7 = factor_language(BETA, "0", 7)
    assert lang7.stabilized
    assert len(lang7.factors) == 22
    assert "1001001" in lang7.factors
    lang1 = factor_language(BETA, "0", 1)
    assert set(lang1.factors) == {"0", "1"}


def test_factor_language_window_engine_matches_direct_scan():
    # deep enough that the run structure stabilizes late: direct scan at a
    # feasible iterate must be a subset, and the union engine must certify
    lang = factor_language(BETA, "0", 24)
    assert lang.stabilized and lang.stabilized_at == 13
    # windows of the twelfth image, read as 24-bit codes
    word = iterate(BETA, "0", 12)
    bits = np.frombuffer(word.encode("ascii"), dtype=np.uint8) - ord("0")
    count = bits.size - 23
    codes = np.zeros(count, dtype=np.uint32)
    for j in range(24):
        codes <<= 1
        codes |= bits[j: j + count]
    direct = {format(c, "024b") for c in np.unique(codes)}
    assert direct < set(lang.factors)
    assert set(lang.factors) - direct == {"1" * 24}


def test_fixed_letter_language_stabilizes_immediately():
    lang = factor_language(BETA, "1", 3)
    assert lang.stabilized
    assert set(lang.factors) == set()


def test_languages_equal_alpha_beta():
    for length in (1, 4, 9, 16, 24):
        cmp = languages_equal(ALPHA, "0", BETA, "0", length)
        assert cmp.equal, (length, cmp.only_left, cmp.only_right)
        assert cmp.left_stabilized_at is not None
        assert cmp.right_stabilized_at is not None


def test_languages_differ_from_unrelated_substitution():
    fib = Substitution(rules={"0": "01", "1": "0"})
    cmp = languages_equal(fib, "0", BETA, "0", 4)
    assert not cmp.equal
    assert cmp.only_left or cmp.only_right


def test_bridge_equates_covering_rows_with_substitution():
    report = substitution_bridge(7)
    assert report.equal
    assert report.covering_size == report.substitution_size == 22
    assert report.only_covering == () and report.only_substitution == ()


def test_bridge_across_window_sizes():
    for length in (1, 2, 3, 5, 12, 24):
        report = substitution_bridge(length)
        assert report.equal, (length, report.only_covering, report.only_substitution)


def test_apply_word_rejects_foreign_letters():
    with pytest.raises(UsageError, match="letter 'x' outside"):
        apply_word(BETA, "0x1y")
    with pytest.raises(UsageError, match="single characters"):
        apply_word(Substitution({"01": "1", "1": "1"}), "1")


@st.composite
def _substitutions(draw, max_image=4):
    alphabet = "012"[: draw(st.integers(2, 3))]
    images = st.text(alphabet, min_size=1, max_size=max_image)
    return Substitution({x: draw(images) for x in alphabet}), alphabet


@settings(max_examples=150, deadline=None)
@given(_substitutions(), st.data(), st.integers(1, 10))
def test_factor_language_equals_brute_force_union(drawn, data, length):
    sub, alphabet = drawn
    seed = data.draw(st.text(alphabet, min_size=1, max_size=3))
    lang = factor_language(sub, seed, length)
    # only the cap leaves a closure open, and the default cap never trips here
    assert lang.stabilized
    word, union = seed, set()
    for k in range(lang.stabilized_at + 40):
        factors = {word[i: i + length] for i in range(len(word) - length + 1)}
        if k <= lang.stabilized_at:
            union |= factors
        else:
            assert factors <= lang.factors
        if len(word) * max(map(len, sub.rules.values())) > 20_000:
            break
        word = apply_word(sub, word)
    assume(k > lang.stabilized_at)
    assert union == lang.factors


def _whole_window_closure(sub, seed, length, cap):
    """The closure that slices every window of ``sub(v)``; the seed grows
    until it reaches ``length`` letters or stops growing for ``|A|`` steps."""
    word, k, flat = seed, 0, 0
    while len(word) < length:
        grown = apply_word(sub, word)
        if len(grown) > cap:
            return frozenset(), False, None, k
        if grown == word or flat == len(sub.rules):
            return frozenset(), True, k, k
        flat = flat + 1 if len(grown) == len(word) else 0
        word, k = grown, k + 1
    seen = frontier = {word[i: i + length] for i in range(len(word) - length + 1)}
    while frontier:
        if len(seen) * length > cap:
            return frozenset(seen), False, None, k
        found = set()
        for v in frontier:
            image = apply_word(sub, v)
            found |= {image[i: i + length] for i in range(len(image) - length + 1)}
        frontier = found - seen
        seen |= frontier
        k += 1
    return frozenset(seen), True, k - 1, k


@settings(max_examples=300, deadline=None)
@given(
    _substitutions(max_image=7),
    st.data(),
    st.integers(1, 24),
    st.one_of(st.none(), st.integers(1, 600)),
)
def test_factor_language_equals_whole_window_closure(drawn, data, length, cap):
    # small caps trip mid-closure, so the unstabilized returns are compared too
    sub, alphabet = drawn
    seed = data.draw(st.text(alphabet, min_size=1, max_size=3))
    lang = factor_language(sub, seed, length, cap=cap)
    got = (lang.factors, lang.stabilized, lang.stabilized_at, lang.iterations)
    assert got == _whole_window_closure(sub, seed, length, expansion_cap(cap))


@st.composite
def _one_moved_substitutions(draw):
    """Substitutions with exactly one letter ``x`` whose image is not ``x``."""
    alphabet = "012"[: draw(st.integers(2, 3))]
    moved = draw(st.sampled_from(alphabet))
    image = draw(st.text(alphabet, min_size=1, max_size=7).filter(lambda w: w != moved))
    return Substitution({x: image if x == moved else x for x in alphabet}), alphabet


def _closure_fields(sub, seed, length, cap):
    lang = factor_language(sub, seed, length, cap=cap)
    return lang.factors, lang.stabilized, lang.stabilized_at, lang.iterations


@settings(max_examples=300, deadline=None)
@given(
    _one_moved_substitutions(),
    st.data(),
    st.integers(1, 24),
    st.one_of(st.none(), st.integers(1, 600)),
)
def test_one_moved_letter_closure_equals_whole_window_closure(drawn, data, length, cap):
    # these closures build their images by replacing the moved letter
    sub, alphabet = drawn
    seed = data.draw(st.text(alphabet, min_size=1, max_size=4))
    want = _whole_window_closure(sub, seed, length, expansion_cap(cap))
    assert _closure_fields(sub, seed, length, cap) == want


@pytest.mark.parametrize(
    "rules, seed",
    [
        ({"0": "1", "1": "1"}, "0"),  # the image is one other letter
        ({"0": "1", "1": "1"}, "1001"),
        ({"0": "11", "1": "1"}, "010"),  # the image lacks the moved letter
        ({"0": "0", "1": "00"}, "1"),
        ({"0": "0120", "1": "1", "2": "2"}, "0"),  # two fixed letters of three
        ({"0": "0", "1": "2", "2": "2"}, "121"),
        ({"0": "0", "1": "1", "2": "2101"}, "20"),
        ({"0": "012", "1": "1", "2": "2"}, "2110"),
    ],
)
def test_one_moved_letter_cases_equal_whole_window_closure(rules, seed):
    sub = Substitution(rules)
    for length in (1, 2, 3, 5, 8, 13, 24):
        for cap in (None, 1, 20, 60, 300):
            want = _whole_window_closure(sub, seed, length, expansion_cap(cap))
            assert _closure_fields(sub, seed, length, cap) == want, (length, cap)


def test_short_seeds_that_stop_growing_stabilize_empty():
    swap = factor_language(Substitution({"0": "1", "1": "0"}), "0", 3)
    assert swap.stabilized and swap.factors == frozenset()
    assert swap.stabilized_at == swap.iterations == 2
    chain = factor_language(Substitution({"0": "1", "1": "2", "2": "0"}), "01", 5)
    assert chain.stabilized and chain.factors == frozenset()
    slow = Substitution({"0": "01", "1": "1"})
    for length in (60, 80, 200):
        lang = factor_language(slow, "0", length)
        assert lang.stabilized and lang.stabilized_at == length
        assert lang.factors == {"0" + "1" * (length - 1), "1" * length}


def test_iterate_rejects_malformed_substitutions():
    with pytest.raises(UsageError, match="outside the alphabet"):
        iterate(Substitution({"0": "0x", "1": "1"}), "0", 3)
    with pytest.raises(UsageError, match="nonempty"):
        iterate(Substitution({"0": "", "1": "10"}), "1", 2)


def test_factor_language_rejects_malformed_substitutions():
    with pytest.raises(UsageError):
        factor_language(Substitution({"0": "0x", "1": "1"}), "0", 3)
    with pytest.raises(UsageError):
        factor_language(Substitution({"0": "", "1": "10"}), "1", 3)


def test_factor_language_memory_bound_leaves_it_unstabilized():
    lang = factor_language(BETA, "0", 12, cap=100)
    assert not lang.stabilized and lang.stabilized_at is None
    assert factor_language(BETA, "0", 12).stabilized
