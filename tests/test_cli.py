"""Command-line surface: exit codes, output shapes, error payloads."""
from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrank2 import (
    classify_ergodicity,
    cli,
    gen_mixing_family,
    gen_not_weakmix_family,
    gen_substitution_family,
    gen_weakmix_not_mix_family,
    spec_to_json,
)
from proxrank2.measures import rat_from_json


@pytest.fixture
def base_spec_file(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(spec_to_json(gen_substitution_family(depth=6)))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_gen_then_validate(tmp_path, capsys):
    out_file = tmp_path / "mix.json"
    code, _, _ = run(capsys, ["family", "gen", "mixing", "--depth", "6", "-o", str(out_file)])
    assert code == 0
    code, out, _ = run(capsys, ["validate", "--spec", str(out_file)])
    assert code == 0
    assert "ok" in out


def test_length_command(base_spec_file, capsys):
    code, out, _ = run(capsys, ["length", "--spec", base_spec_file])
    assert code == 0
    assert "8191" in out
    code, out, _ = run(capsys, ["length", "3", "--spec", base_spec_file])
    assert code == 0
    assert out.strip().endswith("31")


def test_gaps_command_lists_realized_gaps(base_spec_file, capsys):
    code, out, _ = run(capsys, ["gaps", "3", "2", "1", "1", "--max-gap", "20", "--spec", base_spec_file])
    assert code == 0
    assert "7" in out and "8" in out and "15" in out


def test_gaps_command_takes_a_max_gap_beyond_the_walk(tmp_path, capsys):
    # No gap above l_m is realized, so the mask stops at l_m = 191 instead
    # of allocating max_gap + 1 entries (93 GiB here); the answer and the
    # max_gap field are those of the requested value.
    path = tmp_path / "mix4.json"
    path.write_text(spec_to_json(gen_mixing_family(depth=4)))
    argv = ["gaps", "3", "1", "1", "1", "--spec", str(path)]
    code, want, _ = run(capsys, [*argv, "--max-gap", "191"])
    assert code == 0
    assert want.strip().split(",")[-1] == "176"
    code, out, _ = run(capsys, [*argv, "--max-gap", "100000000000"])
    assert (code, out) == (0, want)
    code, out, _ = run(capsys, [*argv, "--max-gap", "100000000000", "--json"])
    assert code == 0
    got = json.loads(out)
    assert got["max_gap"] == 100_000_000_000
    assert ",".join(map(str, got["gaps"])) == want.strip()
    assert got["engine"] == "materialized"


def test_gaps_window_past_the_cap_stops_cleanly(tmp_path, capsys):
    # The cap bounds the window of gaps, not the walk: a window of 1e11
    # gaps ends with exit 3 and a message before anything is allocated,
    # while a vertex-0 query on the same circuit, far past the walk's cap,
    # answers.
    path = tmp_path / "mix20.json"
    path.write_text(spec_to_json(gen_mixing_family(depth=20)))
    argv = ["gaps", "21", "1", "0", "0", "--spec", str(path), "--cap", "100000000"]
    code, out, err = run(capsys, [*argv, "--max-gap", "100000000000"])
    assert (code, out) == (3, "")
    assert err == (
        "error: gap window of circuit 21 over level 1 needs 100000000001 materialized entries, "
        "cap is 100000000\n"
    )
    code, out, _ = run(capsys, ["gaps", "21", "1", "3", "0", "--max-gap", "40", "--spec", str(path)])
    assert (code, out) == (0, ",".join(str(g) for g in range(8, 41)) + "\n")


def test_measure_command_honours_the_cap(tmp_path, capsys):
    path = tmp_path / "mix6.json"
    path.write_text(spec_to_json(gen_mixing_family(depth=6)))
    argv = ["measure", "4", "--horizon", "5", "--spec", str(path)]
    code, _, err = run(capsys, [*argv, "--cap", "100"])
    assert code == 3
    assert "cap is 100\n" in err
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("loop ")


def test_residue_command_on_p3_family(tmp_path, capsys):
    path = tmp_path / "nw.json"
    path.write_text(spec_to_json(gen_not_weakmix_family(3, depth=15)))
    argv = ["residue", "1", "3", "16", "--max-gap", "30000", "--spec", str(path)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        "classes v1=[1] v2=[2] mod 3\n"
        "scanned v1v1=9999 v1v2=9999 up to 30000\n"
        "passed\n"
    )
    code, out, _ = run(capsys, [*argv, "--json"])
    assert code == 0
    assert out == (
        '{"classes_v1":[1],"classes_v2":[2],"m":16,"n":1,"p":3,"passed":true,'
        '"scan_max_gap":30000,"scanned_v1v1":9999,"scanned_v1v2":9999,'
        '"violations_v1v1":[],"violations_v1v2":[],"witnesses":[]}\n'
    )
    code, _, err = run(capsys, [*argv[:4], "--max-gap", "-5", *argv[6:]])
    assert (code, err) == (2, "error: max_gap must be >= 0, got -5\n")


def test_residue_command_with_a_modulus_past_int64(tmp_path, capsys):
    path = tmp_path / "nw.json"
    path.write_text(spec_to_json(gen_not_weakmix_family(3, depth=6)))
    p = str(2**70)
    code, out, err = run(capsys, ["residue", "1", p, "5", "--max-gap", "50", "--spec", str(path)])
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "scanned v1v1=15 v1v2=16 up to 50",
        "failed",
        f"witness: v1 at 13 and 16: gap 3 != 0 mod {p}",
        f"witness: realized v1->v1 gap 3 != 0 mod {p}",
        f"witness: realized v1->v2 gap 4 != 1 mod {p}",
    ]


def test_ergodic_command_prints_label(base_spec_file, capsys):
    code, out, _ = run(capsys, ["ergodic", "--spec", base_spec_file])
    assert code == 0
    assert "TwoErgodic(certified)" in out


def test_ergodic_json_mode(base_spec_file, capsys):
    code, out, _ = run(capsys, ["ergodic", "--spec", base_spec_file, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "TwoErgodic"


def test_ergodic_prints_sums_longer_than_the_digit_limit(tmp_path, capsys):
    spec_file = tmp_path / "mix200.json"
    code, _, _ = run(capsys, ["family", "gen", "mixing", "--depth", "200", "-o", str(spec_file)])
    assert code == 0
    code, out, err = run(capsys, ["ergodic", "--spec", str(spec_file)])
    assert code == 0, err
    assert out.splitlines()[-1].startswith("i=200 ")
    code, out, err = run(capsys, ["ergodic", "--spec", str(spec_file), "--json"])
    assert code == 0, err
    last = json.loads(out)["rows"][-1]
    assert len(last["partial_sum"]["den"]) > sys.get_int_max_str_digits()
    expected = classify_ergodicity(gen_mixing_family(depth=200)).rows[-1]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parsed = {
            key: rat_from_json(last[key])
            for key in ("one_minus_r", "partial_sum", "partial_product")
        }
    finally:
        sys.set_int_max_str_digits(old)
    assert parsed == {
        "one_minus_r": expected.one_minus_r,
        "partial_sum": expected.partial_sum,
        "partial_product": expected.partial_product,
    }


def test_array_accepts_equals_window_syntax(base_spec_file, capsys):
    code, out, _ = run(
        capsys,
        ["array", "--position", "2:2", "--window=-2:4", "--spec", base_spec_file],
    )
    assert code == 0
    assert "n=1" in out
    assert "|" in out


def test_array_window_out_of_range_exits_one(base_spec_file, capsys):
    code, _, err = run(
        capsys,
        ["array", "--position", "2:2", "--window=0:10", "--spec", base_spec_file,
         "--json-errors"],
    )
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "WindowUndetermined"
    assert payload["first_time"] == 5


def test_expansion_cap_exits_three(base_spec_file, capsys):
    code, _, err = run(
        capsys,
        ["expand", "6", "1", "--what", "time", "--cap", "100", "--spec", base_spec_file,
         "--json-errors"],
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "ExpansionTooLarge"
    assert payload["needed"] == 2047
    assert payload["cap"] == 100


def test_measure_command_exits_three_past_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROXRANK2_CAP", raising=False)
    path = tmp_path / "mix.json"
    path.write_text(spec_to_json(gen_mixing_family(depth=40)))
    code, out, err = run(capsys, ["measure", "30", "--horizon", "35", "--spec", str(path)])
    assert (code, out) == (3, "")
    assert err == (
        "error: edge measure of level 30 needs 3458764513820540927 materialized entries, "
        "cap is 100000000\n"
    )


def test_usage_error_exits_two(base_spec_file, capsys):
    code, _, _ = run(capsys, ["length", "99", "--spec", base_spec_file])
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sep1", "3", "4", "--pad-max", "-2"], "pad_max must be >= 0, got -2"),
        (["sep1", "3", "4", "--samples", "-1"], "samples must be >= 0, got -1"),
        (["expand", "3", "1", "--head", "-1"], "--head must be >= 0, got -1"),
    ],
    ids=["sep1-pad-max", "sep1-samples", "expand-head"],
)
def test_negative_count_exits_two(base_spec_file, capsys, argv, message):
    code, out, err = run(capsys, [*argv, "--spec", base_spec_file])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_argparse_error_exits_two(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_telescope_reads_stdin(base_spec_file, capsys, monkeypatch, tmp_path):
    import io

    text = spec_to_json(gen_substitution_family(depth=6))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out_file = tmp_path / "tel.json"
    code, _, _ = run(capsys, ["telescope", "--spec", "-", "--keep", "1,3", "-o", str(out_file)])
    assert code == 0
    code, out, _ = run(capsys, ["length", "--spec", str(out_file)])
    assert code == 0
    assert "31" in out


def test_subst_commands(capsys):
    code, out, _ = run(capsys, ["subst", "apply", "tau", "0"])
    assert code == 0 and out.strip() == "001"
    code, out, _ = run(capsys, ["subst", "equal", "alpha", "0", "beta", "0", "7"])
    assert code == 0
    code, out, _ = run(capsys, ["subst", "bridge", "7"])
    assert code == 0
    assert "22" in out


def test_mixcheck_command(capsys, tmp_path):
    mix_file = tmp_path / "mix.json"
    run(capsys, ["family", "gen", "mixing", "--depth", "20", "-o", str(mix_file)])
    code, out, _ = run(capsys, ["mixcheck", "21", "1", "--spec", str(mix_file)])
    assert code == 0
    assert "ok" in out.lower()


def test_bratteli_roundtrip_command(base_spec_file, capsys):
    code, out, _ = run(capsys, ["bratteli", "roundtrip", "--rows", "4", "--spec", base_spec_file])
    assert code == 0


def test_bratteli_vershik_command(base_spec_file, capsys):
    code, out, _ = run(
        capsys,
        ["bratteli", "vershik", "--rows", "4", "--position", "27", "--steps", "3",
         "--spec", base_spec_file],
    )
    assert code == 0
    assert "30" in out


def test_bratteli_vershik_at_depth_800(tmp_path, capsys):
    spec_file = tmp_path / "mix800.json"
    spec_file.write_text(spec_to_json(gen_mixing_family(depth=800)))
    start = 123456789123456789
    code, out, _ = run(
        capsys,
        ["bratteli", "vershik", "--position", str(start), "--steps", "3", "--spec", str(spec_file)],
    )
    assert code == 0
    assert out == ",".join(str(start + k) for k in range(4)) + "\n"


def test_stablepoint_past_the_top_names_the_presented_range(base_spec_file, capsys):
    code, out, err = run(capsys, ["stablepoint", "900", "--spec", base_spec_file])
    assert (code, out) == (2, "")
    assert err == "error: need 1 <= base 1 <= top 900 <= 7\n"


def test_fractional_slot_in_point_json_exits_two(base_spec_file, capsys):
    point = '{"top_level":3,"slot_path":[1.5,2],"offset":0}'
    code, out, err = run(capsys, ["array", "--point", point, "--window=0:3", "--spec", base_spec_file])
    assert (code, out) == (2, "")
    assert err.startswith("error: seed needs int top_level")


@pytest.fixture(scope="module")
def seed_spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("seeds") / "base.json"
    path.write_text(spec_to_json(gen_substitution_family(depth=6)))
    return str(path)


_NOT_INT = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@st.composite
def _hostile_seed_json(draw):
    """Seed JSON with a field that is not an int, a key missing, another shape, or no JSON."""
    seed = {"top_level": 3, "slot_path": [1, 2], "offset": 0, "base_level": 1}
    how = draw(st.sampled_from(["field", "slot", "missing", "shape", "text"]))
    if how == "field":
        seed[draw(st.sampled_from(sorted(seed)))] = draw(_NOT_INT)
    elif how == "slot":
        slots = draw(st.lists(st.integers(-1, 3), max_size=3))
        slots.insert(draw(st.integers(0, len(slots))), draw(_NOT_INT))
        seed["slot_path"] = slots
    elif how == "missing":
        del seed[draw(st.sampled_from(["top_level", "slot_path", "offset"]))]
    elif how == "shape":
        seed = draw(st.one_of(_NOT_INT, st.lists(_NOT_INT, max_size=3), st.integers()))
    else:
        return draw(st.text(max_size=12).filter(lambda t: not t.lstrip().startswith("{")))
    return json.dumps(seed)


@settings(max_examples=150, deadline=None)
@given(_hostile_seed_json(), st.sampled_from(["--point", "--point-a", "--point-b"]))
def test_hostile_point_json_exits_two_with_a_message(seed_spec_file, text, flag):
    if flag == "--point":
        argv = ["array", f"--point={text}", "--window=0:3"]
    else:
        other = "--position-b" if flag == "--point-a" else "--position-a"
        argv = ["liyorke", f"{flag}={text}", other, "3:0", "--horizon", "5"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--spec", seed_spec_file])
    assert code == 2, (text, out.getvalue())
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def test_language_command_exit_reflects_stabilization(base_spec_file, capsys, tmp_path):
    code, out, _ = run(capsys, ["language", "1", "3", "--words", "--spec", base_spec_file])
    assert code == 0
    assert "CCE" in out
    hand = tmp_path / "hand.json"
    hand.write_text(json.dumps({"l1": 2, "levels": [{"a": [1, 1, 1], "b": 2}]}))
    code, _, _ = run(capsys, ["language", "1", "4", "--spec", str(hand)])
    assert code == 1


def test_language_has_no_window_flag(base_spec_file, capsys):
    code, _, err = run(capsys, ["language", "1", "4", "--window", "2", "--spec", base_spec_file])
    assert code == 2
    assert "--window" in err


@pytest.mark.parametrize("rules", ['{"0":"0x","1":"1"}', '{"0":"","1":"10"}'])
def test_malformed_substitution_exits_two(capsys, rules):
    code, out, err = run(capsys, ["subst", "lang", rules, "0", "3"])
    assert code == 2
    assert out == ""
    assert "image of '0'" in err


@pytest.fixture
def staged_spec_file(tmp_path):
    path = tmp_path / "wm.json"
    path.write_text(spec_to_json(gen_weakmix_not_mix_family(depth=7)))
    return str(path)


_FORBIDDEN_OUT = {
    "3": (
        "len_arith=431 len_measured=431 agree=True\n"
        "window_start=432 first_realized=1300 width=868\n"
        "empty\n"
        "  pair (1,1) first=1301\n"
        "  pair (1,2) first=1302\n"
        "  pair (2,1) first=1300\n"
        "  pair (2,2) first=1301\n",
        '{"all_pairs_empty":true,"first_realized":1300,"len_arith":431,"len_measured":431,'
        '"lengths_agree":true,"m":3,"n":1,"noncenter_pairs":4,"per_pair":['
        '{"first_realized":1301,"u":1,"v":1},{"first_realized":1302,"u":1,"v":2},'
        '{"first_realized":1300,"u":2,"v":1},{"first_realized":1301,"u":2,"v":2}],'
        '"top_level":8,"width":868,"window_start":432}\n',
    ),
    "6": (
        "len_arith=216181 len_measured=216181 agree=True\n"
        "window_start=216182 first_realized=648550 width=432368\n"
        "empty\n",
        '{"all_pairs_empty":true,"first_realized":648550,"len_arith":216181,'
        '"len_measured":216181,"lengths_agree":true,"m":6,"n":4,"noncenter_pairs":2985984,'
        '"per_pair":[],"top_level":8,"width":432368,"window_start":216182}\n',
    ),
}


@pytest.mark.parametrize("m", sorted(_FORBIDDEN_OUT))
def test_forbidden_command_output_is_pinned(staged_spec_file, capsys, m):
    text, js = _FORBIDDEN_OUT[m]
    assert run(capsys, ["forbidden", m, "--spec", staged_spec_file]) == (0, text, "")
    assert run(capsys, ["forbidden", m, "--json", "--spec", staged_spec_file]) == (0, js, "")


def test_forbidden_command_stops_at_the_cap_of_the_gap_window(staged_spec_file, capsys, monkeypatch):
    # The top circuit has 4323647 steps, but the report reads only gap
    # windows: 2 (len + l_n) = 868, doubled once to 1736 to find the first
    # distance, 1301.  So the cap of the top walk no longer refuses, and a
    # cap below the doubled window of 1737 entries refuses naming it.
    for cap in ("4323647", "1737"):
        monkeypatch.setenv("PROXRANK2_CAP", cap)
        assert run(capsys, ["forbidden", "3", "--spec", staged_spec_file]) == (0, _FORBIDDEN_OUT["3"][0], "")
    monkeypatch.setenv("PROXRANK2_CAP", "1736")
    assert run(capsys, ["forbidden", "3", "--spec", staged_spec_file]) == (
        3,
        "",
        "error: gap window of circuit 8 over level 1 needs 1737 materialized entries, "
        "cap is 1736\n",
    )
    # below the first window's 869 entries the d-word (1479 symbols) refuses first
    monkeypatch.setenv("PROXRANK2_CAP", "868")
    assert run(capsys, ["forbidden", "3", "--spec", staged_spec_file])[:2] == (3, "")


# Circuit 15 of both specs is past the default cap (5.4e8 and 3.2e9 steps):
# these commands read windows of its walks and answer.  The lines were
# checked against the seed descent (seed_from_position, one position at a time).
_PAST_THE_CAP = {
    "sep1": (
        "substitution",
        ["sep1", "3", "6"],
        "samples=200 max_padding=7 skipped_identical=7\n",
    ),
    "array": (
        "mixing",
        ["array", "--position", "15:123456789", "--window=-5:20"],
        "n=1   CCCCCCC|E|CCCCCCCCCCC|CCCCCCC",
    ),
    "liyorke": (
        "mixing",
        ["liyorke", "--position-a", "15:1234567891", "--position-b", "15:1234567893",
         "--horizon", "1910", "--k-target", "3"],
        "best_k=3 proximal=80 at_target=5 separations=240\nfirst_at_target=556\nfirst_separation=4\n",
    ),
}


@pytest.mark.parametrize("command", sorted(_PAST_THE_CAP))
def test_window_commands_answer_past_the_cap(tmp_path, capsys, monkeypatch, command):
    monkeypatch.delenv("PROXRANK2_CAP", raising=False)
    tag, argv, want = _PAST_THE_CAP[command]
    gen = gen_substitution_family if tag == "substitution" else gen_mixing_family
    path = tmp_path / "deep.json"
    path.write_text(spec_to_json(gen(depth=14)))
    code, out, err = run(capsys, [*argv, "--spec", str(path)])
    assert (code, err) == (0, "")
    assert want in out


@pytest.mark.parametrize(
    "argv, level",
    [
        (["sep1", "3", "6"], 3),
        (["array", "--position", "41:5", "--window=0:3"], 41),
        (["liyorke", "--position-a", "41:5", "--position-b", "41:6", "--horizon", "3"], 1),
    ],
    ids=["sep1", "array", "liyorke"],
)
def test_window_commands_exit_three_past_int64(tmp_path, capsys, argv, level):
    # Circuit 41 has 2^81 - 1 steps: positions are descended in int64 only
    # below 2^62, so the commands end with exit 3 and a message, no traceback.
    path = tmp_path / "sub40.json"
    path.write_text(spec_to_json(gen_substitution_family(depth=40)))
    assert run(capsys, [*argv, "--spec", str(path)]) == (
        3,
        "",
        f"error: window descent of circuit 41 over level {level} needs "
        f"2417851639229258349412352 materialized entries, cap is 4611686018427387904\n",
    )
