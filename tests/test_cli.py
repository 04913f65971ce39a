import json
from fractions import Fraction

import pytest

from gl2zeta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_chartable_ascii(capsys):
    code, out = run(capsys, "chartable", "--group", "pgl2", "--q", "3")
    assert code == 0
    assert "steinberg:0" in out and "cuspidal:2" in out
    assert "c4:" in out


def test_chartable_json_round_trip(capsys):
    code, out = run(capsys, "chartable", "--group", "gl2", "--q", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "mednykh-zeta/1"
    assert len(doc["irreps"]) == 15
    again = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == out  # byte-identical round trip


def test_chartable_csv(capsys):
    code, out = run(capsys, "chartable", "--group", "gl2", "--q", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("irrep,dim,fs,")
    assert len(lines) == 4  # header + 3 irreps


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "chartable", "--group", "gl2", "--q", "5", "--format", "json")
    _, out2 = run(capsys, "chartable", "--group", "gl2", "--q", "5", "--format", "json")
    assert out1 == out2


def test_zeta_exact(capsys):
    code, out = run(capsys, "zeta", "--group", "gl2", "--q", "3", "--s", "2",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["generic"] == "437/144"


def test_zeta_both_match(capsys):
    code, out = run(capsys, "zeta", "--group", "pgl2", "--q", "5", "--s", "3", "--both",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["generic"] == doc["closed_form"]
    assert doc["difference"] == "0"


def test_zeta_insert(capsys):
    code, out = run(capsys, "zeta", "--group", "gl2", "--q", "3", "--s", "0",
                    "--insert", "c2:0", "--both", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["generic"] == "3/4"
    assert doc["match"] is True


def test_zeta_fs_and_double(capsys):
    code, out = run(capsys, "zeta", "--group", "gl2", "--q", "4", "--s", "1",
                    "--fs", "+1", "--both", "--format", "json")
    assert code == 0 and json.loads(out)["match"] is True
    code, out = run(capsys, "zeta", "--group", "gl2", "--q", "3", "--s", "0",
                    "--double", "--format", "json")
    assert code == 0 and json.loads(out)["generic"] == "56"


def test_zeta_float_argument(capsys):
    code, out = run(capsys, "zeta", "--group", "gl2", "--q", "3", "--s", "1.5",
                    "--both", "--format", "json")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_count_with_oracle(capsys):
    code, out = run(capsys, "count", "--group", "gl2", "--q", "3", "--genus", "2",
                    "--orientable", "--oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "MATCH"
    assert doc["value"] == doc["oracle"] == "335616"


def test_count_nonorientable(capsys):
    code, out = run(capsys, "count", "--group", "gl2", "--q", "3", "--genus", "1",
                    "--non-orientable", "--oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "14" and doc["verdict"] == "MATCH"


def test_count_quotient_with_insert(capsys):
    code, out = run(capsys, "count", "--group", "gl2", "--q", "3", "--genus", "1",
                    "--orientable", "--insert", "c2:0", "--quotient", "--oracle",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "MATCH"


def test_retired_jobs_option_is_a_usage_error(capsys):
    code = main(["count", "--q", "2", "--genus", "1", "--orientable", "--oracle",
                 "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_fusion_triple(capsys):
    code, out = run(capsys, "fusion", "--q", "3", "--triple", "steinberg:0",
                    "steinberg:0", "steinberg:0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bracket"] == "1" and doc["match"] is True


def test_fusion_triple_coefficient_checks_the_dual(capsys, monkeypatch):
    # the coefficient <pi1 pi2 pi3*> comes from the conjugated row of pi3, the
    # closed form from the parameter-level dual: a wrong dual is a mismatch
    argv = ("fusion", "--q", "7", "--triple", "principal:0,1", "cuspidal:1", "cuspidal:2",
            "--format", "json")
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0 and doc["coefficient"] == "1" and doc["match"] is True
    monkeypatch.setattr("gl2zeta.cli.CharacterTable.contragredient", lambda self, pi: pi)
    code, out = run(capsys, *argv)
    assert code == 2 and json.loads(out)["match"] is False


def test_fusion_all(capsys):
    code, out = run(capsys, "fusion", "--q", "3", "--all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "MATCH"
    assert len(doc["triples"]) == 120


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["passed"] >= 20
    names = {c["formula"] for c in doc["checks"]}
    assert "zeta-at-minus-two-burnside" in names


def test_show_field(capsys):
    code, out = run(capsys, "show-field", "--q", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["modpoly"] == [1, 1, 1]


def test_exit_code_usage_errors(capsys):
    assert main(["zeta", "--q", "6", "--s", "0"]) == 1  # not a prime power
    capsys.readouterr()
    assert main(["zeta", "--group", "gl2", "--q", "3", "--s", "0",
                 "--insert", "c3:1,1"]) == 1  # repeated eigenvalue
    capsys.readouterr()
    assert main(["chartable"]) == 1  # missing --q
    capsys.readouterr()
    assert main(["fusion", "--q", "3", "--triple", "cuspidal:4",
                 "cuspidal:4", "cuspidal:4"]) == 1  # non-primitive exponent
    capsys.readouterr()


def test_exit_code_cap(capsys):
    # |GL(2,9)| = 5760 exceeds the default element cap of 4000
    assert main(["count", "--group", "gl2", "--q", "9", "--genus", "1",
                 "--orientable", "--oracle"]) == 3
    capsys.readouterr()


def test_classspec_projection_for_pgl(capsys):
    code, out = run(capsys, "zeta", "--group", "pgl2", "--q", "3", "--s", "0",
                    "--insert", "c1:1", "--format", "json")
    assert code == 0
    assert json.loads(out)["insertions"] == ["c1:0"]  # central -> identity


def one_line_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    return code


def test_non_finite_s_is_a_usage_error(capsys):
    assert one_line_error(capsys, "zeta", "--q", "5", "--s", "1e400",
                          "--format", "json") == 1
    assert one_line_error(capsys, "zeta", "--q", "5", "--s", "nan", "--both") == 1
    assert one_line_error(capsys, "zeta", "--q", "5", "--s", "1e400j") == 1


def test_float_s_overflow_is_a_usage_error(capsys):
    assert one_line_error(capsys, "zeta", "--q", "5", "--s", "-1000.5") == 1


def test_library_value_errors_exit_one(capsys):
    assert one_line_error(capsys, "count", "--q", "3", "--genus", "-1",
                          "--orientable") == 1
    assert one_line_error(capsys, "count", "--group", "pgl2", "--q", "3", "--genus",
                          "1", "--orientable", "--quotient") == 1
    # ClosedFormUnavailable
    assert one_line_error(capsys, "zeta", "--group", "pgl2", "--q", "5", "--s", "0",
                          "--insert", "c1:0", "--both") == 1


def test_both_catches_a_closed_form_off_by_1e_minus_15(capsys, monkeypatch):
    # a float tolerance would call this a match; the polynomials differ
    import gl2zeta.cli as cli
    from gl2zeta.zeta import Dirichlet

    exact = cli.zeta_closed_gl

    def nudged(q, s):
        poly = exact(q, None)
        return Dirichlet([*poly.coeffs.items(), (q, Fraction(1, 10**15))]).at(s)

    monkeypatch.setattr(cli, "zeta_closed_gl", nudged)
    code, out = run(capsys, "zeta", "--q", "3", "--s", "1.5", "--both", "--format", "json")
    doc = json.loads(out)
    assert code == 2 and doc["match"] is False
    assert doc["difference"] != {"float": [0.0, 0.0]}


EXACT_S = ["0.5", "-1.25", "1+2j"]


def _both_argvs(group: str, q: int):
    """Every `zeta --both` pattern with a closed form at this q: the plain
    zeta, each FS filter, the GL double, one insertion of each class kind
    and, for PGL, a split+elliptic pair."""
    yield ()
    for fs in ("+1", "0", "-1"):
        yield ("--fs", fs)
    if group == "gl2":
        yield ("--double",)
        specs = ["c1:0", "c2:0", f"c4:{q - 1}"] + (["c3:0,1"] if q > 2 else [])
    else:
        specs = ["c2:0", "c4:1"] + (["c3:1"] if q > 2 else [])
    for spec in specs:
        yield ("--insert", spec)
    if group == "pgl2" and q > 2:
        yield ("--insert", "c3:1", "--insert", "c4:1")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("group", ["gl2", "pgl2"])
def test_both_is_exact_at_non_integer_s(capsys, group, q):
    for extra in _both_argvs(group, q):
        for s in EXACT_S:
            code, out = run(capsys, "zeta", "--group", group, "--q", str(q), "--s", s,
                            *extra, "--both", "--format", "json")
            doc = json.loads(out)
            assert code == 0 and doc["match"] is True, (s, extra)
            assert doc["difference"] == {"float": [0.0, 0.0]}, (s, extra)
            assert doc["generic"] == doc["closed_form"], (s, extra)


def test_zeta_both_evaluates_each_side_once(capsys, monkeypatch):
    import gl2zeta.cli as cli

    calls = []
    insert = cli.zeta_insert

    def counting(*args):
        calls.append(args)
        return insert(*args)

    monkeypatch.setattr(cli, "zeta_insert", counting)
    code, out = run(capsys, "zeta", "--q", "3", "--s", "0", "--insert", "c2:0", "--both",
                    "--format", "json")
    assert code == 0 and json.loads(out)["match"] is True
    assert len(calls) == 1


def test_non_finite_float_zeta_is_an_error(capsys):
    # the sum of dim^250.3 over GL(2,16) overflows a double to inf; the NaN
    # difference of --both must not reach the output either
    for extra in ((), ("--both",)):
        assert one_line_error(capsys, "zeta", "--q", "16", "--s", "-250.3",
                              "--format", "json", *extra) == 1


def test_json_output_is_strict():
    from gl2zeta.cli import _dumps

    with pytest.raises(ValueError):
        _dumps({"float": [float("inf"), 0.0]})


def test_fusion_csv_is_a_usage_error(capsys):
    assert one_line_error(capsys, "fusion", "--q", "3", "--triple", "steinberg:0",
                          "steinberg:0", "steinberg:0", "--format", "csv") == 1


def test_fs_with_insert_is_a_usage_error(capsys):
    # --fs filters the plain zeta sum only; it must not be dropped silently
    assert one_line_error(capsys, "zeta", "--q", "4", "--s", "2", "--fs", "+1",
                          "--insert", "c1:0") == 1


def test_fs_with_double_is_a_usage_error(capsys):
    assert one_line_error(capsys, "zeta", "--q", "4", "--s", "2", "--fs", "+1",
                          "--double") == 1


def test_double_with_insert_is_a_usage_error(capsys):
    # the double's zeta has no insertion form; the insertions must not be dropped silently
    assert one_line_error(capsys, "zeta", "--q", "3", "--s", "0", "--double",
                          "--insert", "c2:0") == 1


def test_inexact_result_is_an_error_not_a_traceback(capsys, monkeypatch):
    import importlib

    from gl2zeta.reptheory import rational_sum

    # a table bug: the insertion sum comes out irrational (zeta_n alone)
    monkeypatch.setattr(importlib.import_module("gl2zeta.zeta"), "rational_sum",
                        lambda n, weights, factors: rational_sum(n, [1], [[((1, 1),)]]))
    code = main(["zeta", "--q", "3", "--s", "2", "--insert", "c2:0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "not rational" in captured.err and "Traceback" not in captured.err

    def failed_check(*args):
        raise AssertionError("centralizer sum disagrees with the double")

    monkeypatch.setattr("gl2zeta.cli.zeta_sum", failed_check)
    assert one_line_error(capsys, "zeta", "--q", "3", "--s", "2") == 2
