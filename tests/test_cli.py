"""Command-line harness: records, exit codes, determinism."""

import json

import pytest

from tiedbox.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, records


def test_enumerate(capsys):
    code, records = run(capsys, "enumerate", "--monoid", "br-jones", "--n", "4")
    assert code == 0
    assert records[0]["count"] == 35


def test_enumerate_with_elements(capsys):
    code, records = run(capsys, "enumerate", "--monoid", "br-symmetric",
                        "--n", "2", "--ramified")
    assert code == 0
    assert records[0]["count"] == 3
    assert len(records) == 4
    assert all("element" in r for r in records[1:])


def test_present_check(capsys):
    code, records = run(capsys, "present-check", "--preset", "brjn", "--n", "3")
    assert code == 0
    assert records[0]["status"] == "pass"
    assert records[0]["normal_forms"] == 10


def test_dim_table(capsys):
    code, records = run(capsys, "dim", "--family", "bh", "--max-n", "5")
    assert code == 0
    assert [r["dim"] for r in records] == [1, 3, 11, 47, 231]


def test_multiply_roundtrip(capsys):
    # z_1 * z_1 = e_1 + (q - q^-1) z_1 in basis coordinates
    code, records = run(capsys, "multiply", "--algebra", "bh", "--n", "2",
                        "--lhs", "(1*q^0) * 1", "--rhs", "(1*q^0) * 1")
    assert code == 0
    assert records[0]["status"] == "pass"


def test_cellular(capsys):
    code, records = run(capsys, "cellular", "--family", "btl", "--n", "3")
    assert code == 0
    assert all(r["status"] == "pass" for r in records)


@pytest.mark.parametrize("family", ["bh", "btl", "hecke-murphy", "tl"])
def test_cellular_on_no_strands(family, capsys):
    # the empty composition is the only linear partition of no strands
    code, records = run(capsys, "cellular", "--family", family, "--n", "0")
    assert code == 0
    assert len(records) == 3
    assert all(r["status"] == "pass" for r in records)


def test_center(capsys):
    code, records = run(capsys, "center", "--monoid", "r-symmetric", "--n", "3")
    assert code == 0
    assert records[0]["count"] == 2


def test_normal_form_command(capsys):
    from tiedbox import ramified

    element = str(ramified.gen_z(3, 1) * ramified.gen_z(3, 2))
    code, records = run(capsys, "normal-form", "--monoid", "br-symmetric",
                        "--element", element)
    assert code == 0
    assert records[0]["status"] == "pass"


def test_no_records_print_nothing(capsys):
    code = main(["dim", "--family", "tl", "--max-n", "0"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_table_format(capsys):
    code = main(["dim", "--family", "tl", "--max-n", "3", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dim=5" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code = main(["enumerate", "--monoid", "jones", "--n", "4",
                 "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    rec = json.loads(target.read_text().splitlines()[0])
    assert rec["count"] == 14


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--monoid", "not-a-monoid", "--n", "3"])
    assert exc.value.code == 64


def test_seed_is_only_an_option_of_the_seeded_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--monoid", "jones", "--n", "2", "--seed", "1"])
    assert exc.value.code == 64
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    code, records = run(capsys, "rep-check", "--seed", "1")
    assert code == 0 and records


@pytest.mark.parametrize("argv", [
    ["enumerate", "--monoid", "jones", "--n", "-1"],
    ["present-check", "--preset", "brsn", "--n", "-1"],
    ["cellular", "--family", "bh", "--n", "-1"],
    ["dim", "--family", "bh", "--max-n", "-1"],
])
def test_negative_n_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    capsys.readouterr()
    assert exc.value.code == 64


def test_inconclusive_only_exits_2(monkeypatch, capsys):
    from tiedbox import cli

    monkeypatch.setattr(cli, "presentation_check",
                        lambda *args: {"status": "inconclusive"})
    code, records = run(capsys, "present-check", "--preset", "brsn", "--n", "3")
    assert code == 2
    assert records[0]["status"] == "inconclusive"


def _raise(exc):
    def family(n):
        raise exc
    return family


def test_exhausted_budget_is_an_inconclusive_record(monkeypatch, capsys):
    from tiedbox import cli
    from tiedbox.diagrams import BudgetExceeded

    monkeypatch.setitem(cli.MONOIDS, "jones",
                        _raise(BudgetExceeded("closure budget exhausted")))
    code, records = run(capsys, "enumerate", "--monoid", "jones", "--n", "3")
    assert code == 2
    assert records == [{"name": "enumerate", "status": "inconclusive",
                        "reason": "closure budget exhausted"}]


@pytest.mark.parametrize("argv", [
    ("present-check", "--preset", "srsn", "--n", "7"),
    ("enumerate", "--monoid", "r-symmetric", "--n", "7"),
])
def test_oversized_r_symmetric_is_inconclusive_without_enumerating(
        argv, monkeypatch, capsys):
    from tiedbox import ramified

    # |R(S_7)| = 7! * bell(7) = 4,420,080 is known before any element is built
    monkeypatch.setattr(ramified, "from_perm_and_ties",
                        lambda *args: pytest.fail("R(S_7) was enumerated"))
    code, records = run(capsys, *argv)
    assert code == 2
    assert records == [{"name": argv[0], "status": "inconclusive",
                        "reason": "|R(S_7)| = 4420080 is above the budget 1000000"}]


@pytest.mark.parametrize("argv, reason", [
    (("enumerate", "--monoid", "partition", "--n", "6"), "|P_6| = 4213597"),
    (("enumerate", "--monoid", "br-partition", "--n", "6"), "|BR(P_6)| = 4945661"),
    (("enumerate", "--monoid", "br-symmetric", "--n", "10"), "|BR(S_10)| = 4960775"),
    (("present-check", "--preset", "brsn", "--n", "10"), "|BR(S_10)| = 4960775"),
    # the check stops at the first size above the budget, whatever n is
    (("enumerate", "--monoid", "br-symmetric", "--n", "40"),
     "|BR(S_40)| >= |BR(S_10)| = 4960775"),
    (("present-check", "--preset", "brsn-z", "--n", "40"),
     "|BR(S_40)| >= |BR(S_10)| = 4960775"),
    (("enumerate", "--monoid", "br-jones", "--n", "30"),
     "|BR(J_30)| >= |BR(J_12)| = 1352078"),
    (("enumerate", "--monoid", "br-partition", "--n", "100000"),
     "|BR(P_100000)| >= |BR(P_6)| = 4945661"),
    (("enumerate", "--monoid", "partition", "--n", "40"), "|P_40| >= |P_6| = 4213597"),
    (("enumerate", "--monoid", "r-symmetric", "--n", "40"),
     "|R(S_40)| >= |R(S_7)| = 4420080"),
    (("present-check", "--preset", "pn", "--n", "12"), "|Pi_12| = 4213597"),
])
def test_oversized_direct_enumerations_are_inconclusive_without_enumerating(
        argv, reason, monkeypatch, capsys):
    from tiedbox import combinatorics, diagrams, ramified, setpartitions

    # the sizes are known before any element is built
    def enumerated(*args):
        pytest.fail(f"{argv[-3]} {argv[-1]} was enumerated")

    monkeypatch.setattr(combinatorics, "compositions", enumerated)
    monkeypatch.setattr(ramified, "compositions", enumerated)
    monkeypatch.setattr(diagrams, "all_partitions", enumerated)
    monkeypatch.setattr(ramified, "all_partitions", enumerated)
    monkeypatch.setattr(setpartitions, "all_partitions", enumerated)
    monkeypatch.setattr(ramified, "symmetric_diagrams", enumerated)
    monkeypatch.setattr(ramified, "over", enumerated)
    code, records = run(capsys, *argv)
    assert code == 2
    assert records == [{"name": argv[0], "status": "inconclusive",
                        "reason": f"{reason} is above the budget 1000000"}]


@pytest.mark.parametrize("algebra, n, reason", [
    ("hecke", 10, "|S_10| = 3628800"),
    ("tied", 8, "|R(S_8)| >= |R(S_7)| = 4420080"),
    ("bh", 10, "|BR(S_10)| = 4960775"),
    ("btl", 12, "|BR(J_12)| = 1352078"),
])
def test_oversized_algebra_bases_are_inconclusive_without_enumerating(
        algebra, n, reason, monkeypatch, capsys):
    from tiedbox import algebras, perms

    # the dimensions are known before any basis key is built
    def enumerated(*args):
        pytest.fail(f"the basis of {algebra}:{n} was enumerated")

    for module, name in ((perms, "all_perms"), (perms, "young_subgroup"),
                         (algebras, "all_partitions"),
                         (algebras, "linear_partitions"),
                         (algebras, "compositions")):
        monkeypatch.setattr(module, name, enumerated)
    code, records = run(capsys, "multiply", "--algebra", algebra, "--n", str(n),
                        "--lhs", "0", "--rhs", "0")
    assert code == 2
    assert records == [{"name": "multiply", "status": "inconclusive",
                        "reason": f"{reason} is above the budget 1000000"}]


def test_oversized_dimension_table_is_one_inconclusive_record(capsys):
    code, records = run(capsys, "dim", "--family", "tied", "--max-n", "8")
    assert code == 2
    assert records == [{"name": "dim", "status": "inconclusive",
                        "reason": "|R(S_7)| = 4420080 is above the budget 1000000"}]


@pytest.mark.parametrize("element, message", [
    ("2; 1|2|3|4 ; 1,3|2,4", "not a Brauer diagram"),
    ("3; 1,4|2,5 ; 1,4|2,5|3,6", "not a Brauer diagram"),
    ("2; 1,3|2,4", "expected `n; blocks ; blocks`"),
])
def test_bad_brauer_element_is_a_usage_error(element, message, capsys):
    code = main(["normal-form", "--monoid", "br-brauer", "--element", element])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("element,d_word,z_word,z_word_2", [
    ("6; 1,7|2,8|3,9|4,10|5,11|6,12 ; 1,2,3,4,5,6,7,8,9,10,11,12",
     [], [], []),
    ("6; 1,4|2,3|5,6|7,12|8,9|10,11 ; 1,2,3,4,5,6,7,8,9,10,11,12",
     [1, 3, 5], [1, 2], [2, 1, 4, 5]),
])
def test_six_strand_brauer_box_is_factored(capsys, element, d_word, z_word,
                                           z_word_2):
    # one box of 6 strands, inside the budget of 6!^2 pairs of permutations
    code, records = run(capsys, "normal-form", "--monoid", "br-brauer",
                        "--element", element)
    assert code == 0
    assert [(r["status"], r["e_boxes"], r["d_word"], r["z_word"],
             r["z_word_2"]) for r in records] == \
        [("pass", [6], d_word, z_word, z_word_2)]


def test_oversized_brauer_box_is_one_inconclusive_record(capsys):
    # one box of 7 strands: its factorization ranges over 7!^2 pairs of
    # permutations, so the budget stops it before the first product
    element = "7; 1,8|2,9|3,10|4,11|5,12|6,13|7,14 ; 1,2,3,4,5,6,7,8,9,10,11,12,13,14"
    code, records = run(capsys, "normal-form", "--monoid", "br-brauer",
                        "--element", element)
    assert code == 2
    assert records == [{"name": "normal-form", "status": "inconclusive",
                        "reason": "|S_7 x S_7| = 25401600 is above the budget 1000000"}]


@pytest.mark.parametrize("monoid", ["br-symmetric", "sr-symmetric", "br-brauer"])
def test_negative_strand_count_in_an_element_is_a_usage_error(monoid, capsys):
    code = main(["normal-form", "--monoid", monoid, "--element", "-1; ; "])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "negative size -2" in captured.err


def test_other_errors_still_surface(monkeypatch, capsys):
    from tiedbox import cli

    monkeypatch.setitem(cli.MONOIDS, "jones", _raise(RecursionError("deep")))
    with pytest.raises(RecursionError):
        main(["enumerate", "--monoid", "jones", "--n", "3"])
    assert capsys.readouterr().out == ""


def test_profile_ignores_the_environment(monkeypatch, capsys):
    from tiedbox import cli

    seen = []
    monkeypatch.setenv("TIEDBOX_PROFILE", "bogus")
    monkeypatch.setattr(cli.checks, "run_all",
                        lambda profile, seed: seen.append(profile) or [])
    code, _ = run(capsys, "verify-all")
    assert code == 0
    assert seen == ["full"]


def test_too_many_generators_is_a_usage_error(capsys):
    # srsn:9 has 36 + 8 * 36 = 324 generators; a word holds one byte each
    code = main(["present-check", "--preset", "srsn", "--n", "9"])
    assert code == 64
    assert "srsn:9 has 324 generators, at most 256" in capsys.readouterr().err


@pytest.mark.parametrize("preset, n, message", [
    ("pn", 30, "pn:30 has 435 generators"),
    ("brauer", 300, "brauer:300 has 598 generators"),
    ("rsn", 300, "rsn:300 has 598 generators"),
    ("brsn", 300, "brsn:300 has 598 generators"),
    ("brsn-z", 600, "brsn-z:600 has 599 generators"),
    ("brjn", 300, "brjn:300 has 598 generators"),
    ("brbrn", 300, "brbrn:300 has 897 generators"),
    ("brbrn-abstract", 300, "brbrn:300 has 897 generators"),
    ("srsn", 30, "srsn:30 has 13050 generators"),
])
def test_generator_limit_comes_before_any_relation(monkeypatch, capsys,
                                                   preset, n, message):
    # a preset over the limit is rejected before it builds a relation or
    # a generator element, so the rejection is immediate at any n
    from tiedbox import presentations

    def built(*args):
        raise AssertionError("built before the generator count was checked")

    for name in ("_pn_relations", "_ties", "_squares", "_far", "_braids",
                 "_neighbours", "_jones", "_tied", "_brauer", "_rsn_relations",
                 "_brsn_relations", "_brsn_z_relations", "_tied_hooks",
                 "gen_e", "gen_s", "gen_z", "gen_d", "gen_e_pair",
                 "gen_z_pair", "perm_diagram", "hook"):
        monkeypatch.setattr(presentations, name, built)
    code = main(["present-check", "--preset", preset, "--n", str(n)])
    assert code == 64
    assert f"{message}, at most 256" in capsys.readouterr().err


def test_bad_element_exit_code(capsys):
    code = main(["multiply", "--algebra", "bh", "--n", "2",
                 "--lhs", "garbage", "--rhs", "(1*q^0) * 0"])
    capsys.readouterr()
    assert code == 64


def test_verify_all_quick_deterministic(capsys):
    code1, records1 = run(capsys, "verify-all", "--profile", "quick",
                          "--seed", "5")
    code2, records2 = run(capsys, "verify-all", "--profile", "quick",
                          "--seed", "5")
    assert code1 == code2 == 0
    assert records1 == records2
    assert all(r["status"] == "pass" for r in records1)
