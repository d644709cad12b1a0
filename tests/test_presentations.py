"""Presentations and Knuth-Bendix string rewriting."""

import pytest

from tiedbox import presentations
from tiedbox.presentations import (
    PRESET_NAMES,
    Presentation,
    build_preset,
    kb_complete,
    normal_forms,
    presentation_check,
)


def test_bicyclic_style_toy_system():
    # x^2 = x, y^2 = y, yx = xy: the free commutative band on two letters
    pres = Presentation(["x", "y"], [((0, 0), (0,)), ((1, 1), (1,)),
                                     ((1, 0), (0, 1))])
    rs = kb_complete(pres)
    assert rs is not None
    nfs = normal_forms(rs, 10)
    # normal forms: empty, x, y, xy
    assert len(nfs) == 4


def test_word_equivalence():
    pres = Presentation(["a", "b"], [((0, 1), ()), ((1, 0), ())])
    rs = kb_complete(pres)
    assert rs is not None
    index = presentations._RuleIndex(rs.rules)
    assert index.reduce(bytes((0, 1, 0))) == index.reduce(bytes((0,)))
    assert index.reduce(bytes((0,))) != index.reduce(bytes((1,)))


def test_symmetric_group_presentation_normal_forms():
    report = presentation_check(*build_preset("brauer", 2))
    assert report["status"] == "pass"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_all_presets_at_n3(name):
    report = presentation_check(*build_preset(name, 3))
    assert report["status"] == "pass", report
    assert report["relations_hold"]
    assert report["surjective"]


EXPECTED_N3 = {
    "pn": 5,
    "brauer": 15,
    "rsn": 30,
    "brsn": 11,
    "brsn-z": 11,
    "brjn": 10,
    "brbrn": 22,
    "brbrn-abstract": 22,
    "srsn": 25,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_N3))
def test_normal_form_counts_n3(name):
    report = presentation_check(*build_preset(name, 3))
    assert report["normal_forms"] == EXPECTED_N3[name]


@pytest.mark.parametrize("name,n,count", [
    ("brauer", 4, 105),
    ("brsn", 4, 47),
    ("brsn-z", 4, 47),
    ("brjn", 4, 35),
])
def test_larger_presets(name, n, count):
    report = presentation_check(*build_preset(name, n))
    assert report["status"] == "pass"
    assert report["normal_forms"] == count


def _occurs(sub, word):
    return any(word[p:p + len(sub)] == sub
               for p in range(len(word) - len(sub) + 1))


RULE_COUNTS = {("brauer", 4): 89, ("brsn", 4): 42, ("brjn", 4): 43,
               ("srsn", 3): 79, ("brbrn", 3): 47, ("brsn", 5): 119,
               ("brjn", 5): 103, ("brsn-z", 5): 32, ("rsn", 4): 97}


@pytest.mark.parametrize("name,n", [(name, 3) for name in PRESET_NAMES]
                         + [("brauer", 4), ("brsn", 4), ("brjn", 4),
                            ("brsn", 5), ("brjn", 5), ("brsn-z", 5),
                            ("rsn", 4)])
def test_completed_system_is_reduced(name, n):
    rs = kb_complete(build_preset(name, n)[0])
    assert rs.complete
    lhs = [l for l, _ in rs.rules]
    assert len(set(lhs)) == len(lhs)
    assert not any(_occurs(l2, l) for l in lhs for l2 in lhs if l2 != l)
    assert not any(_occurs(l, r) for _, r in rs.rules for l in lhs)
    if (name, n) in RULE_COUNTS:
        assert len(rs.rules) == RULE_COUNTS[name, n]


@pytest.mark.parametrize("name,n", [(name, n) for name in PRESET_NAMES
                                    for n in (2, 3, 4)])
def test_no_relation_is_listed_twice(name, n):
    # a relation listed again, as is or with its sides swapped, is joined
    # already when completion reaches it
    relations = build_preset(name, n)[0].relations
    unordered = {frozenset(relation) for relation in relations}
    assert len(unordered) == len(relations)


def test_broken_relation_is_detected():
    pres, gens, identity, target = build_preset("brjn", 3)
    relations = list(pres.relations) + [((0,), ())]  # claim a generator is 1
    broken = Presentation(pres.generators, relations, name="broken")
    report = presentation_check(broken, gens, identity, target)
    assert report["status"] == "fail"


def test_presentation_text_format():
    pres, _, _, _ = build_preset("brjn", 3)
    text = pres.format_text()
    lines = [line for line in text.splitlines() if line.strip()]
    assert all(" = " in line for line in lines)
    assert len(lines) == len(pres.relations)


def test_inconclusive_verdict_is_recorded_as_is(monkeypatch):
    from tiedbox import checks

    monkeypatch.setattr(checks, "presentation_check",
                        lambda *args: {"status": "inconclusive"})
    recs = checks.check_presentations(quick=True)
    assert recs
    assert all(r["status"] == r["got"] == "inconclusive" for r in recs)


def test_incomplete_completion_is_inconclusive(monkeypatch):
    monkeypatch.setattr(presentations, "KB_MAX_STEPS", 10)
    report = presentation_check(*build_preset("brsn", 3))
    assert report["kb_complete"] is False
    assert report["status"] == "inconclusive"


def test_rule_budget_stops_completion(monkeypatch):
    # the relations of brsn:3 give 12 rules and completion adds 3 more, so
    # the budget stops it at the first rule an overlap adds
    monkeypatch.setattr(presentations, "KB_MAX_RULES", 12)
    pres, gens, identity, target = build_preset("brsn", 3)
    rs = kb_complete(pres)
    assert rs.complete is False
    assert rs.steps > 0
    report = presentation_check(pres, gens, identity, target)
    assert report["kb_complete"] is False
    assert report["status"] == "inconclusive"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_completion_does_not_depend_on_the_relation_order(name):
    # the reduced complete system is unique for the shortlex order
    # (Metivier 1983), so joining the relations backwards, which rewrites
    # other words on the way, ends with the same rules
    pres = build_preset(name, 3)[0]
    backwards = Presentation(pres.generators, pres.relations[::-1])
    forward, backward = kb_complete(pres), kb_complete(backwards)
    assert forward.complete and backward.complete
    assert sorted(forward.rules) == sorted(backward.rules)


# steps of complete runs: each depends on the order in which words are
# rewritten and pairs are joined, not only on the final rules
STEP_COUNTS = {("brsn", 5): 48630, ("rsn", 4): 58833, ("brjn", 5): 27924,
               ("brsn-z", 5): 4061}


@pytest.mark.parametrize("name,n", sorted(STEP_COUNTS))
def test_complete_runs_keep_their_step_counts(name, n):
    rs = kb_complete(build_preset(name, n)[0])
    assert rs.complete
    assert rs.steps == STEP_COUNTS[name, n]


def test_srsn4_exhausts_the_step_budget():
    # the rule list at the budget depends on the order in which words are
    # rewritten and pairs are joined, so this pins that order
    rs = kb_complete(build_preset("srsn", 4)[0])
    assert rs.complete is False
    assert len(rs.rules) == 720
    assert rs.steps == presentations.KB_MAX_STEPS + 1


def test_too_many_normal_forms_is_a_sound_fail():
    # without relations the free monoid on one tie is infinite, so the
    # normal form search stops at its cap: more words than the target has
    pres, gens, identity, target = build_preset("pn", 2)
    free = Presentation(pres.generators, [], name="pn-free:2")
    report = presentation_check(free, gens, identity, target)
    assert report["relations_hold"] and report["surjective"]
    assert report["status"] == "fail"
    assert report["witness"] == "more than 1020 normal forms"
