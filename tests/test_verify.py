import json

import pytest

from gl2zeta import verify
from gl2zeta.cli import main
from gl2zeta.reptheory import rational_sum
from gl2zeta.verify import CHECKS, run_verify


@pytest.mark.parametrize("q", [2, 3, 4])
def test_verify_all_pass(q):
    results = run_verify(q)
    assert len(results) == len(CHECKS)
    failed = [r.name for r in results if r.status == "fail"]
    assert not failed, failed
    skipped = [r.name for r in results if r.status == "skip"]
    assert not skipped, skipped


def test_verify_deep_raises_caps():
    shallow = {r.name: r.status for r in run_verify(2)}
    deep = {r.name: r.status for r in run_verify(2, deep=True)}
    assert set(shallow) == set(deep)
    assert all(s == "pass" for s in deep.values())


def test_verify_larger_q_skips_not_fails():
    # |GL(2,9)| = 5760 exceeds the default element cap of 4000
    results = run_verify(9)
    assert not [r.name for r in results if r.status == "fail"]
    # oracle-backed checks are skipped at this size, never silently downgraded
    assert any(r.status == "skip" for r in results)


def test_arithmetic_error_is_a_failed_check(monkeypatch, capsys):
    """A non-rational class sum (a table bug) fails its check by name; the
    suite goes on, and the CLI reports it with exit code 2."""

    @verify._check("non-rational-sum")
    def check_non_rational(s):
        rational_sum(8, [1], [[((1, 1),)]])  # zeta_8 is not rational

    monkeypatch.setattr(verify, "CHECKS", [check_non_rational, verify.check_dlog])
    results = run_verify(2)
    assert [(r.name, r.status) for r in results] == [
        ("non-rational-sum", "fail"),
        ("dlog-homomorphism", "pass"),
    ]
    assert results[0].note == "character-table sum is not rational: table bug"
    assert main(["verify", "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert (doc["passed"], doc["failed"], doc["skipped"]) == (1, 1, 0)
