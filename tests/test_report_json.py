"""The JSON form of every report, pinned.

Each report dataclass writes its JSON through ``to_dict``; most of them
through the one field rule of :class:`proxrank2.report.Report`.  The
canonical JSON (sorted keys, compact separators) of at least one instance
of every report type, built from the shipped families, is compared with a
pinned string (or its sha256 for the long ones), so a change to a field, to
its type or to the field rule shows here.  A new dataclass with a
``to_dict`` must join the pinned set.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import pkgutil
from fractions import Fraction

import pytest

import proxrank2 as P


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report_instances():
    base = P.gen_substitution_family(depth=6)
    mix = P.gen_mixing_family(depth=6)
    wm = P.gen_weakmix_not_mix_family(depth=7)
    nwm = P.gen_not_weakmix_family(p=3, depth=4)
    ue = P.gen_uniquely_ergodic_family(depth=5)
    out = []

    def add(name, obj):
        out.append((name, obj))

    diagram = P.covering_to_diagram(base, rows=4)
    add("FinitePath/base-row3-pos5", P.path_from_position(diagram, 3, "c", 5))
    add("FinitePath/base-max", P.maximal_path(diagram, 4, "c"))
    add("DiagramReport/base", P.validate_diagram(diagram))
    broken = P.OrderedBratteliDiagram(vertex_rows=((P.bratteli.ROOT,),), edge_rows=())
    add("DiagramReport/rootless", P.validate_diagram(broken))
    add("ValidationReport/base", P.validate(base))
    bad = P.spec_from_json('{"l1":4,"levels":[{"a":[1,1],"b":3},{"a":[0,2],"b":1}]}')
    add("ValidationReport/invalid", P.validate(bad))
    add("PointSeed/stable-base-5", P.stable_point(base, 5))
    add("PointSeed/unstable-mix-4", P.unstable_point(mix, 4))
    rows = P.complexity_profile(base, 6)
    add("ComplexityRow/base-L1", rows[0])
    add("ComplexityRow/base-L6", rows[-1])
    block = P.array_block(base, P.seed_from_position(base, 2, 2), (-2, 4))
    add("ArrayRow/base-top", block.rows[0])
    add("ArrayBlock/base-2-2", block)
    add("ArrayBlock/mix", P.array_block(mix, P.stable_point(mix, 3), (-5, 0)))
    add(
        "LiYorkeWitness/base",
        P.li_yorke_witness(
            base, P.seed_from_position(base, 6, 10), P.seed_from_position(base, 6, 400),
            horizon=30, k_target=3,
        ),
    )
    add(
        "LiYorkeWitness/base-backward",
        P.li_yorke_witness(
            base, P.seed_from_position(base, 5, 200), P.seed_from_position(base, 5, 60),
            horizon=12, k_target=2, direction="backward",
        ),
    )
    add("MixingWindowReport/mix-ok", P.mixing_window_check(P.gen_mixing_family(depth=20), 21, 1))
    add("MixingWindowReport/base-even", P.mixing_window_check(base, 5, 1))
    add("MixingWindowReport/nwm-failing",
        P.mixing_window_check(P.gen_not_weakmix_family(p=3, depth=8), 8, 1))
    add("ResidueReport/nwm-pass", P.residue_obstruction(nwm, 1, 3, 4, max_gap=200))
    add("ResidueReport/nwm-p2-fail", P.residue_obstruction(nwm, 1, 2, 4, max_gap=200))
    add("ResidueReport/mix-fail", P.residue_obstruction(mix, 1, 3, 4, max_gap=100))
    add("ForbiddenWindowReport/wm-3", P.forbidden_window_report(wm, 3))
    add("ForbiddenWindowReport/wm-6", P.forbidden_window_report(wm, 6))
    add("SeparationReport/base", P.level1_separation_check(base, 3, 4, samples=20, rng_seed=7))
    add("SeparationReport/unpadded",
        P.level1_separation_check(base, 3, 4, samples=20, rng_seed=7, pad_max=0))
    add("GapSet/base-3-2-1-1", P.gap_set(base, 3, 2, 1, 1, 20))
    add("GapSet/mix-zero", P.gap_set(mix, 4, 1, 0, 0, 15, include_zero=True))
    add("GapStructureReport/wm-5-1", P.gap_structure_report(wm, 5, 1))
    add("GapStructureReport/base-4-1", P.gap_structure_report(base, 4, 1))
    point = P.SimplexPoint(level=4, w_e=Fraction(1, 3), w_c=Fraction(2, 3))
    add("SimplexPoint/level4", point)
    add("SimplexPoint/projected", P.xi_project(base, 4, 2, point))
    add("MeasureVector/base-nonatomic", P.vertex_measure(base, 2, 5))
    add("MeasureVector/ue-fixed", P.vertex_measure(ue, 1, 3, which="fixed"))
    add("MeasureVector/pushed", P.push_measure_down(base, P.vertex_measure(base, 3, 5)))
    erg = P.classify_ergodicity(base)
    add("ErgodicityRow/base-3", erg.rows[2])
    add("ErgodicityReport/base", erg)
    add("ErgodicityReport/ue", P.classify_ergodicity(ue))
    add("ErgodicityReport/wm", P.classify_ergodicity(wm))
    add("ErgodicityReport/unrecognized",
        P.classify_ergodicity(P.spec_from_json('{"l1":3,"levels":[{"a":[2,1,2],"b":2}]}')))
    add("LanguageComparison/alpha-beta", P.languages_equal(P.ALPHA, "0", P.BETA, "0", 8))
    add("LanguageComparison/tau-beta", P.languages_equal(P.TAU, "1", P.BETA, "0", 5))
    add("BridgeReport/8", P.substitution_bridge(8))
    return out


# Canonical JSON of each instance at the time the field rule replaced the
# hand-written methods; entries of more than 300 characters are sha256 digests.
PINNED = {
    'FinitePath/base-row3-pos5': (
        '{"ordinals":[1,4,2],"target":"c","target_row":3}'
    ),
    'FinitePath/base-max': (
        '{"ordinals":[1,1,1,7],"target":"c","target_row":4}'
    ),
    'DiagramReport/base': (
        '{"ok":true,"problems":[],"warnings":[]}'
    ),
    'DiagramReport/rootless': (
        '{"ok":false,"problems":["diagram needs a root row and at least one vertex row"],'
        '"warnings":[]}'
    ),
    'ValidationReport/base': (
        '{"levels":["level 1: ok (general, b=2, sum(a)=3)","level 2: ok (restricted, b=4,'
        ' sum(a)=3)","level 3: ok (restricted, b=4, sum(a)=3)","level 4: ok (restricted, '
        'b=4, sum(a)=3)","level 5: ok (restricted, b=4, sum(a)=3)","level 6: ok (restrict'
        'ed, b=4, sum(a)=3)"],"ok":true,"problems":[],"warnings":[]}'
    ),
    'ValidationReport/invalid': (
        '{"levels":["level 1: INVALID (1 problem(s))","level 2: INVALID (1 problem(s))"],'
        '"ok":false,"problems":["level 1: a must be a tuple of b+1=4 entries, got (1, 1)"'
        ',"level 2: leading margin a[0] must be >= 1 (reduced form)"],"warnings":[]}'
    ),
    'PointSeed/stable-base-5': (
        '{"base_level":1,"offset":1,"slot_path":[3,5,5,5],"top_level":5}'
    ),
    'PointSeed/unstable-mix-4': (
        '{"base_level":1,"offset":0,"slot_path":[1,1,1],"top_level":4}'
    ),
    'ComplexityRow/base-L1': (
        '{"count":2,"length":1,"log2_count_over_length":1.0,"stabilized":true}'
    ),
    'ComplexityRow/base-L6': (
        '{"count":17,"length":6,"log2_count_over_length":0.6812438068750565,"stabilized":'
        'true}'
    ),
    'ArrayRow/base-top': (
        '{"cuts":[-2],"end_cut":true,"level":2,"symbols":"CCCCCCC"}'
    ),
    'ArrayBlock/base-2-2': (
        '{"rows":[{"cuts":[-2],"end_cut":true,"level":2,"symbols":"CCCCCCC"},{"cuts":[-2,'
        '-1,1,2,4],"end_cut":true,"level":1,"symbols":"ECCECCE"}],"seed":{"base_level":1,'
        '"offset":1,"slot_path":[1],"top_level":2},"window":[-2,4]}'
    ),
    'ArrayBlock/mix': (
        '{"rows":[{"cuts":[],"end_cut":false,"level":3,"symbols":"CCCCCC"},{"cuts":[],"en'
        'd_cut":false,"level":2,"symbols":"CCCCCC"},{"cuts":[],"end_cut":true,"level":1,"'
        'symbols":"CCCCCC"}],"seed":{"base_level":1,"offset":10,"slot_path":[5,5],"top_le'
        'vel":3},"window":[-5,0]}'
    ),
    'LiYorkeWitness/base': (
        'sha256:2a18f39f7ec25e60b6c0993301419b020e93eefc812721d94e1159b8f1605e4e'
    ),
    'LiYorkeWitness/base-backward': (
        'sha256:9b099362f73c904be0b30e72b9be03b644e9b5ff31303cf8964c2711c7565530'
    ),
    'MixingWindowReport/mix-ok': (
        '{"engine":"strips","failures":[],"m":21,"n":1,"ok":true,"pairs_checked":121,"pre'
        'condition_violations":[],"window":[33,40]}'
    ),
    'MixingWindowReport/base-even': (
        '{"engine":"materialized","failures":[],"m":5,"n":1,"ok":true,"pairs_checked":4,"'
        'precondition_violations":["level 1: circuit length 2 is even"],"window":[6,8]}'
    ),
    'MixingWindowReport/nwm-failing': (
        'sha256:1c9ff79660c2bcf2c8eca82979be00a5f571bd0324d9d1fbcc3a0beceef87919'
    ),
    'ResidueReport/nwm-pass': (
        '{"classes_v1":[1],"classes_v2":[2],"m":4,"n":1,"p":3,"passed":true,"scan_max_gap'
        '":200,"scanned_v1v1":12,"scanned_v1v2":13,"violations_v1v1":[],"violations_v1v2"'
        ':[],"witnesses":[]}'
    ),
    'ResidueReport/nwm-p2-fail': (
        'sha256:7a27f8faeb2b17e833b9cd473c0c463454e50a142a4b1998b465f24fd4b89dc8'
    ),
    'ResidueReport/mix-fail': (
        'sha256:ff449924491b13dfa25e8ded9a2a67e5819b4809f4635bf6c19d2b742829ebab'
    ),
    'ForbiddenWindowReport/wm-3': (
        'sha256:b1f0e1d499d3ff0733975bbd28604ea2e08f51a393a89425cf2547d869b911f1'
    ),
    'ForbiddenWindowReport/wm-6': (
        '{"all_pairs_empty":true,"first_realized":648550,"len_arith":216181,"len_measured'
        '":216181,"lengths_agree":true,"m":6,"n":4,"noncenter_pairs":2985984,"per_pair":['
        '],"top_level":8,"width":432368,"window_start":216182}'
    ),
    'SeparationReport/base': (
        '{"failures":[],"length":4,"max_padding":1,"n":3,"samples":20,"skipped_identical"'
        ':1,"top_level":7}'
    ),
    'SeparationReport/unpadded': (
        '{"failures":[[593,6727],[4389,771]],"length":4,"max_padding":0,"n":3,"samples":2'
        '0,"skipped_identical":2,"top_level":7}'
    ),
    'GapSet/base-3-2-1-1': (
        '{"engine":"materialized","gaps":[7,8,15],"level":2,"m":3,"max_gap":20,"u":1,"v":'
        '1}'
    ),
    'GapSet/mix-zero': (
        '{"engine":"materialized","gaps":[0,1,2,3,4,5,11,12,13,14,15],"level":1,"m":4,"ma'
        'x_gap":15,"u":0,"v":0}'
    ),
    'GapStructureReport/wm-5-1': (
        '{"cc_present":true,"interior_runs":[0,2,4,1298],"level":1,"m":5,"taus":[{"k":1,"'
        'realized":true,"tau":2},{"k":2,"realized":true,"tau":4},{"k":3,"realized":true,"'
        'tau":1298}]}'
    ),
    'GapStructureReport/base-4-1': (
        '{"cc_present":true,"interior_runs":[1,2,3,4,5],"level":1,"m":4,"taus":[{"k":1,"r'
        'ealized":true,"tau":2},{"k":2,"realized":true,"tau":4}]}'
    ),
    'SimplexPoint/level4': (
        '{"level":4,"w_c":{"den":"3","num":"2"},"w_e":{"den":"3","num":"1"}}'
    ),
    'SimplexPoint/projected': (
        '{"level":2,"w_c":{"den":"381","num":"224"},"w_e":{"den":"381","num":"157"}}'
    ),
    'MeasureVector/base-nonatomic': (
        '{"circuit":[{"den":"511","num":"64"},{"den":"511","num":"64"},{"den":"511","num"'
        ':"64"},{"den":"511","num":"64"},{"den":"511","num":"64"},{"den":"511","num":"64"'
        '},{"den":"511","num":"64"}],"level":2,"loop":{"den":"73","num":"9"}}'
    ),
    'MeasureVector/ue-fixed': (
        '{"circuit":[{"den":"1","num":"0"},{"den":"1","num":"0"}],"level":1,"loop":{"den"'
        ':"1","num":"1"}}'
    ),
    'MeasureVector/pushed': (
        '{"circuit":[{"den":"511","num":"64"},{"den":"511","num":"64"},{"den":"511","num"'
        ':"64"},{"den":"511","num":"64"},{"den":"511","num":"64"},{"den":"511","num":"64"'
        '},{"den":"511","num":"64"}],"level":2,"loop":{"den":"73","num":"9"}}'
    ),
    'ErgodicityRow/base-3': (
        '{"i":3,"one_minus_r":{"den":"127","num":"3"},"partial_product":{"den":"127","num'
        '":"64"},"partial_sum":{"den":"27559","num":"15129"}}'
    ),
    'ErgodicityReport/base': (
        'sha256:1ea19f9ff8c29344e8b90865b3a2a6e944fd7f3168a48ef31af776162c1774f7'
    ),
    'ErgodicityReport/ue': (
        'sha256:e8a0442dc7ad18056a36d3caf88f8a17066244941bdc16829315c28dd006c668'
    ),
    'ErgodicityReport/wm': (
        'sha256:0546a6ae7dd3d51a1464a1475e3bc7d2e5a35116bba68c03f2ef82d9ea42888a'
    ),
    'ErgodicityReport/unrecognized': (
        'sha256:907106f129904be1907c9033b8c85d4dde06ca488bb055eeb6c0e60d5b70df62'
    ),
    'LanguageComparison/alpha-beta': (
        '{"equal":true,"left_stabilized_at":4,"length":8,"only_left":[],"only_right":[],"'
        'right_stabilized_at":5}'
    ),
    'LanguageComparison/tau-beta': (
        '{"equal":false,"left_stabilized_at":0,"length":5,"only_left":[],"only_right":["0'
        '0100","00110","00111","01001","01100","01110","01111","10010"],"right_stabilized'
        '_at":3}'
    ),
    'BridgeReport/8': (
        '{"covering_level_used":7,"covering_size":28,"equal":true,"length":8,"only_coveri'
        'ng":[],"only_substitution":[],"substitution_size":28,"substitution_stabilized_at'
        '":5}'
    ),
}


@pytest.fixture(scope="module")
def reports():
    return dict(_report_instances())


def test_instances_are_the_pinned_ones(reports):
    assert list(reports) == list(PINNED)


@pytest.mark.parametrize("name", list(PINNED))
def test_report_json_is_pinned(reports, name):
    text = _canon(reports[name].to_dict())
    want = PINNED[name]
    if want.startswith("sha256:"):
        text = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    assert text == want


def _dataclasses_with_to_dict() -> set[str]:
    found = set()
    for info in pkgutil.iter_modules(P.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        mod = importlib.import_module(f"proxrank2.{info.name}")
        for obj in vars(mod).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == mod.__name__
                and dataclasses.is_dataclass(obj)
                and hasattr(obj, "to_dict")
            ):
                found.add(obj.__name__)
    return found


def test_every_report_type_is_pinned(reports):
    pinned = {type(obj).__name__ for obj in reports.values()}
    assert len(pinned) == 20
    assert _dataclasses_with_to_dict() == pinned


_JSON_LEAVES = (str, int, float, bool, type(None))


def _plain(value) -> bool:
    """Whether ``value`` is built from dicts with str keys, lists and exact JSON leaves."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return type(value) in _JSON_LEAVES


@pytest.mark.parametrize("name", list(PINNED))
def test_to_dict_is_plain_json(reports, name):
    d = reports[name].to_dict()
    json.dumps(d)  # a Fraction, a tuple key or a numpy integer would raise here
    assert _plain(d), d
