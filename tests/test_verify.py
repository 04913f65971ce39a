import pytest

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
