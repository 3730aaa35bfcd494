"""Family certificates: recognition against the regenerated construction.

A family spec certifies something only when ``l1`` and every presented
level equal the construction its tag and ``gen`` parameters name; bounds,
stage tables and other keys in the JSON are ignored.
"""
from __future__ import annotations

import copy
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxrank2 import (
    CoveringSpec,
    LevelMap,
    MissingStageMetadata,
    UsageError,
    classify_ergodicity,
    cli,
    extend_family,
    forbidden_window_report,
    gen_family,
    gen_mixing_family,
    gen_not_weakmix_family,
    gen_substitution_family,
    gen_uniquely_ergodic_family,
    gen_weakmix_not_mix_family,
    language,
    recognize,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    telescope,
)

DATA = pathlib.Path(__file__).parent / "data"

GENERATORS = {
    "substitution": lambda: gen_substitution_family(depth=6),
    "mixing": lambda: gen_mixing_family(depth=6),
    "weakmix_not_mix": lambda: gen_weakmix_not_mix_family(depth=7),
    "not_weakmix": lambda: gen_not_weakmix_family(5, depth=5, t_bar=3, s=10, s2=5),
    "uniquely_ergodic": lambda: gen_uniquely_ergodic_family(depth=5),
}


def _edited(spec: CoveringSpec, level: int) -> dict:
    """The spec's JSON with one more loop at the end of level ``level``."""
    d = spec_to_dict(spec)
    lm = spec.levels[level - 1]
    d["levels"][level - 1] = {"a": list(lm.a[:-1]) + [lm.a[-1] + 1], "b": lm.b}
    return d


# ------------------------------------------------------------ recognition ---

@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generated_specs_are_recognized(name):
    spec = GENERATORS[name]()
    rec = recognize(spec)
    assert rec.problem is None
    assert rec.levels == tuple(range(1, spec.depth + 2))
    assert spec.family_record == rec
    assert spec_from_json(spec_to_json(spec)).family_record == rec


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generated_params_hold_only_the_generator_arguments(name):
    spec = GENERATORS[name]()
    assert set(spec_to_dict(spec)["family"]["params"]) == {"gen"}
    tel = telescope(spec, (1, 3, spec.depth + 1))
    assert set(spec_to_dict(tel)["family"]["params"]) == {"gen", "original_levels"}
    again = telescope(tel, (1, 3))
    assert set(spec_to_dict(again)["family"]["params"]) == {"gen", "original_levels"}


def test_bounds_are_derived_from_the_tag():
    rec = recognize(gen_mixing_family(depth=4))
    assert (rec.kind, rec.scale, rec.ratio) == ("convergence", Fraction(12, 47), Fraction(1, 4))
    rec = recognize(gen_not_weakmix_family(5, depth=5, t_bar=3, s=10, s2=5))
    assert (rec.kind, rec.scale, rec.ratio) == ("convergence", Fraction(3), Fraction(1, 3))
    rec = recognize(gen_weakmix_not_mix_family(depth=10))
    assert (rec.kind, rec.delta, rec.boundaries) == ("divergence_on_levels", Fraction(1, 2), (3, 6, 9))
    rec = recognize(gen_uniquely_ergodic_family(depth=3))
    assert (rec.kind, rec.delta) == ("divergence", Fraction(1, 2))


def _weakmix_json_prefix(depth: int):
    d = spec_to_dict(gen_weakmix_not_mix_family(depth=7))
    d["levels"] = d["levels"][:depth]
    return spec_from_dict(d)


@pytest.mark.parametrize(
    "make, levels",
    [
        (lambda: telescope(gen_weakmix_not_mix_family(depth=7), [1, 3]), (1, 3)),
        (lambda: _weakmix_json_prefix(2), (1, 2, 3)),
        (lambda: _weakmix_json_prefix(1), (1, 2)),
    ],
    ids=["telescoped-1-3", "json-prefix-2", "json-prefix-1"],
)
def test_staged_family_is_recognized_before_its_first_boundary(make, levels):
    # the construction needs 3 levels to reach its first boundary; a shorter
    # presentation is checked against the prefix of those 3 levels
    spec = make()
    rec = spec.family_record
    assert (rec.problem, rec.levels, rec.boundaries) == (None, levels, ())
    report = classify_ergodicity(spec)
    assert report.verdict == "Undetermined" and not report.certified
    assert report.certificate.endswith("; no boundary level is presented to verify")
    assert report.certificate.startswith("l1 and all ")


def test_staged_family_prefix_with_an_edited_level_is_not_recognized():
    d = spec_to_dict(gen_weakmix_not_mix_family(depth=7))
    d["levels"] = d["levels"][:2]
    d["levels"][1] = {"a": [2, 0, 0, 0, 0, 2], "b": 5}
    rec = spec_from_dict(d).family_record
    assert rec.problem == "level 2 differs from the regenerated construction"


def test_hand_spec_is_not_recognized():
    spec = CoveringSpec(l1=2, levels=(LevelMap(a=(1, 1, 1), b=2),))
    assert recognize(spec).problem is not None
    report = classify_ergodicity(spec)
    assert report.label == "Undetermined"


# -------------------------------------------------------------- forgeries ---

def test_forged_convergence_bound_is_ignored():
    d = spec_to_dict(gen_uniquely_ergodic_family(depth=3))
    d["family"]["params"]["bound"] = {
        "type": "convergence",
        "scale": {"num": "1000", "den": "1"},
        "ratio": {"num": "1", "den": "2"},
    }
    assert classify_ergodicity(spec_from_dict(d)).label == "UniquelyErgodic(certified)"


def test_forged_divergence_bound_on_a_hand_spec_is_not_certified():
    d = spec_to_dict(CoveringSpec(l1=11, levels=(LevelMap(a=(2, 0, 1), b=2),) * 3))
    d["family"] = {
        "tag": "mixing",
        "params": {"bound": {"type": "divergence", "delta": {"num": "0", "den": "1"}}},
    }
    report = classify_ergodicity(spec_from_dict(d))
    assert report.verdict == "Undetermined" and not report.certified


def test_forged_stage_is_refused():
    d = spec_to_dict(gen_weakmix_not_mix_family(depth=7))
    d["family"]["params"]["stages"] = [{"m": 4, "n": 2, "len_d": "1", "s": "1"}]
    spec = spec_from_dict(d)
    with pytest.raises(MissingStageMetadata):
        forbidden_window_report(spec, 4)
    assert forbidden_window_report(spec, 3).len_arith == 431


def test_stage_of_an_edited_spec_is_refused():
    spec = spec_from_dict(_edited(gen_weakmix_not_mix_family(depth=7), 2))
    with pytest.raises(MissingStageMetadata, match="level 2 differs"):
        forbidden_window_report(spec, 3)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_edited_level_is_not_certified_or_extended(name):
    spec = spec_from_dict(_edited(GENERATORS[name](), 2))
    report = classify_ergodicity(spec)
    assert report.verdict == "Undetermined" and not report.certified
    assert "level 2 differs" in report.certificate
    assert extend_family(spec, 2 * spec.depth) is None


def test_language_on_an_edited_family_spec_acts_like_a_hand_spec():
    genuine = gen_substitution_family(depth=4)
    edited = spec_from_dict(_edited(genuine, 2))
    hand = CoveringSpec(l1=edited.l1, levels=edited.levels)
    got = language(edited, 1, 9)
    assert not got.stabilized
    assert got == language(hand, 1, 9)
    assert language(genuine, 1, 9).stabilized


def test_edited_original_levels_are_not_certified():
    tel = telescope(gen_substitution_family(depth=6), (2, 5, 7))
    assert classify_ergodicity(tel).label == "TwoErgodic(certified)"
    for kept in ([2, 4, 7], [1, 5, 7], [2, 5, 8], [2, 5, 10**9], [5, 2, 7], [2, 5], "2,5,7"):
        d = spec_to_dict(tel)
        d["family"]["params"]["original_levels"] = kept
        report = classify_ergodicity(spec_from_dict(d))
        assert not report.certified, kept


def test_telescoped_levels_are_compared_not_only_lengths():
    tel = telescope(gen_substitution_family(depth=6), (2, 5, 7))
    d = spec_to_dict(tel)
    a = d["levels"][0]["a"]
    d["levels"][0]["a"] = a[::-1] if a != a[::-1] else a[1:] + a[:1]
    moved = spec_from_dict(d)
    assert moved.lengths == tel.lengths
    assert (moved.levels[0].a, moved.levels[0].b) != (tel.levels[0].a, tel.levels[0].b)
    assert recognize(moved).problem == "level 1 differs from the regenerated construction"
    assert not classify_ergodicity(moved).certified


# ---------------------------------------------------------- extend_family ---

def test_extend_family_sizes_from_the_requested_depth():
    d = spec_to_dict(gen_mixing_family(depth=4))
    d["family"]["params"]["gen"]["depth"] = 10**8
    spec = spec_from_dict(d)
    ext = extend_family(spec, 8)
    assert ext is not None and ext.depth == 8
    assert language(spec, 1, 5).stabilized
    assert classify_ergodicity(spec).label == "TwoErgodic(certified)"


@pytest.mark.parametrize(
    "gen", [{"l1": 11, "depth": 4, "colour": 1}, {"l1": 11, "depth": "7"}, {"l1": 13, "depth": 4}, [11]]
)
def test_unusable_generator_parameters_are_not_recognized(gen):
    d = spec_to_dict(gen_mixing_family(depth=4))
    d["family"]["params"]["gen"] = gen
    spec = spec_from_dict(d)
    assert recognize(spec).problem is not None
    assert extend_family(spec, 8) is None
    assert not classify_ergodicity(spec).certified
    hand = CoveringSpec(l1=spec.l1, levels=spec.levels)
    assert language(spec, 1, 9) == language(hand, 1, 9)


def test_huge_t_bar_is_refused_without_building_it():
    d = spec_to_dict(gen_not_weakmix_family(3, depth=4))
    d["family"]["params"]["gen"]["t_bar"] = 10**12
    spec = spec_from_dict(d)
    assert "t_bar" in recognize(spec).problem
    assert extend_family(spec, 8) is None


# --------------------------------------------------- old files, telescopes ---

def test_spec_files_written_with_serialized_bounds_keep_their_labels():
    saved = json.loads((DATA / "parent_family_specs.json").read_text())
    assert any("level_checks" in entry["spec"]["family"]["params"] for entry in saved.values())
    for name, entry in saved.items():
        spec = spec_from_dict(entry["spec"])
        assert classify_ergodicity(spec).label == entry["label"], name
    staged = spec_from_dict(saved["weakmix_not_mix"]["spec"])
    assert staged.family_record.stages == {3: 1, 6: 4}
    assert forbidden_window_report(staged, 3).len_arith == 431


def test_telescoped_base_family_stays_certified():
    tel = telescope(gen_substitution_family(depth=6), (2, 5, 7))
    assert classify_ergodicity(tel).label == "TwoErgodic(certified)"
    back = spec_from_json(spec_to_json(tel))
    assert classify_ergodicity(back).label == "TwoErgodic(certified)"
    assert classify_ergodicity(telescope(back, (1, 3))).label == "TwoErgodic(certified)"


def test_telescoped_staged_family_keeps_its_intact_stages():
    spec = gen_weakmix_not_mix_family(depth=7)
    tel = telescope(spec, (1, 2, 3, 4, 5, 7, 8))
    assert tel.family_record.stages == {3: 1}
    assert forbidden_window_report(tel, 3).len_arith == 431
    assert classify_ergodicity(tel).label == "UniquelyErgodic(certified)"


def test_staged_family_telescoped_past_the_cap_of_its_words_stays_certified():
    # 125 windings per composed map, whose words have up to 1.6e11 symbols
    tel = telescope(gen_weakmix_not_mix_family(depth=12), [1, 4, 7, 10, 13])
    assert classify_ergodicity(tel).label == "UniquelyErgodic(certified)"


@pytest.mark.parametrize("make", [gen_substitution_family, gen_mixing_family])
def test_deep_generators_round_trip_and_certify(make):
    spec = make(depth=8000)
    back = spec_from_json(spec_to_json(spec))
    assert back == spec
    assert classify_ergodicity(back, depth=3).label == "TwoErgodic(certified)"


# -------------------------------------------------------- hostile metadata ---

def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "family",
    [{"params": {}}, {"tag": "mixing", "params": [1]}, {"tag": 3, "params": {}}, {"tag": "mixing"}, [1]],
)
def test_malformed_family_metadata_exits_two(tmp_path, capsys, family):
    d = spec_to_dict(gen_mixing_family(depth=3))
    d["family"] = family
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    with pytest.raises(UsageError):
        spec_from_dict(d)
    code, _, err = _run(capsys, ["ergodic", "--spec", str(path)])
    assert code == 2 and err.startswith("error: ")


def _genuine(d: dict) -> bool:
    """Whether the levels equal what the metadata's generator builds (test oracle)."""
    try:
        fam = d["family"]
        params = fam["params"]
        kept = params.get("original_levels")
        depth = kept[-1] - 1 if kept else len(d["levels"])
        if not 1 <= depth <= 40:
            return False
        regen = gen_family(fam["tag"], **{**params["gen"], "depth": depth})
        if kept:
            regen = telescope(regen, kept)
        want = spec_to_dict(regen)
        return (want["l1"], want["levels"]) == (d["l1"], d["levels"])
    except Exception:
        return False


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 12), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


_BASES = {
    spec.family.tag + str(spec.depth): (spec_to_dict(spec), classify_ergodicity(spec).verdict)
    for spec in (
        gen_substitution_family(depth=4),
        gen_weakmix_not_mix_family(depth=4),
        gen_not_weakmix_family(3, depth=3),
        gen_uniquely_ergodic_family(depth=3),
        telescope(gen_mixing_family(depth=5), (1, 2, 4)),
    )
}


@st.composite
def _mutated_specs(draw):
    """A generated spec's JSON with mutated family metadata, and the spec's verdict."""
    base, verdict = _BASES[draw(st.sampled_from(sorted(_BASES)))]
    d = copy.deepcopy(base)
    fam = d["family"]
    params = fam["params"]
    gen = params["gen"]
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(
            ["drop", "retype", "gen_key", "gen_value", "kept", "bound", "stages", "tag"]
        ))
        if action == "drop":
            where = draw(st.sampled_from([fam, params, gen]))
            if where:
                where.pop(draw(st.sampled_from(sorted(where))), None)
        elif action == "retype":
            key = draw(st.sampled_from(["tag", "params", "gen", "original_levels"]))
            (fam if key in ("tag", "params") else params)[key] = draw(_JUNK)
        elif action == "gen_key":
            gen[draw(st.sampled_from(["colour", "depth", "l1", "p", "kind", "t_bar"]))] = draw(_JUNK)
        elif action == "gen_value":
            key = draw(st.sampled_from(sorted(gen) or ["depth"]))
            gen[key] = draw(st.one_of(st.integers(-2, 20), st.just(10**8), _JUNK))
        elif action == "kept":
            size = len(d["levels"]) + draw(st.integers(-1, 1))
            params["original_levels"] = draw(st.one_of(
                st.lists(st.integers(-1, 12), min_size=size, max_size=size),
                st.lists(st.integers(1, 10**15), min_size=size, max_size=size),
            ))
        elif action == "bound":
            params["bound"] = draw(_JUNK if draw(st.booleans()) else st.fixed_dictionaries({
                "type": st.sampled_from(["convergence", "divergence", "divergence_on_levels"]),
                "delta": st.just({"num": "0", "den": "1"}),
                "scale": st.just({"num": "1000", "den": "1"}),
                "ratio": st.just({"num": "1", "den": "2"}),
                "levels": st.lists(st.integers(0, 6), max_size=3),
            }))
        elif action == "stages":
            params["stages"] = draw(_JUNK if draw(st.booleans()) else st.lists(
                st.dictionaries(st.sampled_from(["m", "n", "len_d", "s"]), st.integers(0, 6)),
                max_size=3,
            ))
        else:
            fam["tag"] = draw(st.sampled_from(
                ["substitution", "mixing", "weakmix_not_mix", "not_weakmix", "custom", "x"]
            ))
    return d, verdict


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_mutated_specs())
def test_hostile_family_metadata_never_crashes_or_forges(tmp_path, capsys, case):
    d, verdict = case
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    spec = ["--spec", str(path)]
    code, out, err = _run(capsys, ["ergodic", "--json", *spec])
    assert code in (0, 2), err
    if code == 0:
        report = json.loads(out)
        assert not report["certified"] or (_genuine(d) and report["verdict"] == verdict)
    else:
        assert err.startswith("error: ")
    code, out, err = _run(capsys, ["language", "1", "6", *spec])
    assert code in (0, 1, 2), err
    code, out, err = _run(capsys, ["forbidden", "3", *spec])
    assert code in (0, 1, 2), err
    assert not out or _genuine(d)


# ------------------------------------------------------- hostile level JSON ---

@pytest.mark.parametrize(
    "text",
    [
        '{"l1": 2, "levels": 5}',
        '{"l1": 2, "levels": [7]}',
        '{"l1": ' + "9" * 5000 + ', "levels": []}',
        '{"l1": 2, "levels": [{"a": [1, 1, 1], "b": [2]}]}',
        '{"l1": 2.5, "levels": []}',
        '{"l1": 2, "levels": [{"a": [1, true], "b": 1}]}',
        '{"l1": 2, "levels": [{"s": 1, "t": 2, "s\'": 1}]}',
        '{"l1": 2, "levels": [{"s": 1, "t": 1000000000000, "t\'": 2, "s\'": 1}]}',
        "[" * 100000 + "]" * 100000,
    ],
    ids=[
        "levels-int", "level-int", "l1-5000-digits", "b-list", "l1-float", "a-bool",
        "restricted-missing-key", "restricted-huge-t", "deep-nesting",
    ],
)
def test_malformed_level_json_exits_two(tmp_path, capsys, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(UsageError):
        spec_from_json(text)
    code, _, err = _run(capsys, ["validate", "--spec", str(path)])
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["gaps", "2", "1", "1", "1", "--max-gap", "5"], ["bratteli", "export", "--rows", "2"],
     ["residue", "1", "3", "2"], ["expand", "2", "1"], ["measure", "1", "--horizon", "2"]],
    ids=["gaps", "bratteli", "residue", "expand", "measure"],
)
def test_short_loop_run_list_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "spec.json"
    path.write_text('{"l1": 4, "levels": [{"a": [1, 1], "b": 3}]}')
    code, _, err = _run(capsys, [*argv, "--spec", str(path)])
    assert (code, err) == (2, "error: level 1: a must have b+1=4 entries, got 2\n")


def test_bratteli_export_stops_at_the_cap(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"l1": 1000000000000, "levels": [{"a": [1, 1], "b": 1}]}')
    code, _, err = _run(capsys, ["bratteli", "export", "--rows", "1", "--spec", str(path)])
    assert code == 3 and err.startswith("error: ordered diagram with 1 rows needs")


_HUGE = st.sampled_from([10**18, -(10**40), 10**300, 10**4000])


def _slots(d) -> list:
    """Every (container, key) of ``l1`` and ``levels`` that a mutation may hit."""
    out = [(d, key) for key in ("l1", "levels") if key in d]
    levels = d.get("levels")
    if isinstance(levels, list):
        for i, level in enumerate(levels):
            out.append((levels, i))
            if isinstance(level, dict):
                out.extend((level, key) for key in level)
                if isinstance(level.get("a"), list):
                    out.extend((level["a"], j) for j in range(len(level["a"])))
    return out


@st.composite
def _mutated_levels(draw):
    """A generated spec's JSON with mutated ``l1`` and ``levels``."""
    d = copy.deepcopy(_BASES[draw(st.sampled_from(sorted(_BASES)))][0])
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(d)
        if not slots:
            break
        where, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(["retype", "drop", "nest", "int", "int"]))
        if action == "drop":
            del where[key]
        elif action == "retype":
            where[key] = draw(_JUNK)
        elif action == "nest":
            old = where[key]
            where[key] = draw(st.sampled_from([[old], {"a": old, "b": old}, [[old], 1]]))
        else:
            where[key] = draw(st.one_of(st.integers(-3, 12), _HUGE))
    return d


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(d=_mutated_levels())
def test_hostile_levels_never_crash(tmp_path, capsys, monkeypatch, d):
    # a small cap keeps any walk or restricted run form a mutation reaches small
    monkeypatch.setenv("PROXRANK2_CAP", "100000")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    spec = ["--spec", str(path)]
    for argv in (["validate"], ["language", "1", "6"], ["complexity", "5"], ["ergodic"]):
        code, _, err = _run(capsys, [*argv, *spec])
        assert code in (0, 1, 2), (argv, err)
        assert code != 2 or err.startswith("error: ")
    # these materialize walks or diagram rows, so they may also stop at the cap (exit 3)
    for argv in (
        ["gaps", "2", "1", "1", "1", "--max-gap", "5"],
        ["bratteli", "export", "--rows", "2"],
        ["residue", "1", "3", "2"],
    ):
        code, _, err = _run(capsys, [*argv, *spec])
        assert code in (0, 1, 2, 3), (argv, err)
        assert code < 2 or err.startswith("error: ")
