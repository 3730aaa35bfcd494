"""The two-letter substitution model and its bridge to the covering rows."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxrank2 import (
    ALPHA,
    BETA,
    TAU,
    Substitution,
    UsageError,
    apply_word,
    circuit_length,
    commute_check,
    compose,
    conjugation_identity,
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
    with pytest.raises(UsageError):
        apply_word(BETA, "0x1")


@st.composite
def _substitutions(draw):
    alphabet = "012"[: draw(st.integers(2, 3))]
    images = st.text(alphabet, min_size=1, max_size=4)
    return Substitution({x: draw(images) for x in alphabet}), alphabet


@settings(max_examples=150, deadline=None)
@given(_substitutions(), st.data(), st.integers(1, 10))
def test_factor_language_equals_brute_force_union(drawn, data, length):
    sub, alphabet = drawn
    seed = data.draw(st.text(alphabet, min_size=1, max_size=3))
    lang = factor_language(sub, seed, length)
    if not lang.stabilized:
        # only a seed whose iterates never reach `length` letters and never
        # settle on a fixed word is left open
        assert lang.factors == frozenset()
        assert len(iterate(sub, seed, 64)) < length
        return
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
