"""The identity registry: every check passes, and a failing one is reported."""

import pytest

from fuzzyqrg import cli
from fuzzyqrg.linalg import SingularSystemError
from fuzzyqrg.verify import SUITES, iter_checks, run_suite

CHECKS = list(iter_checks("all"))


@pytest.mark.parametrize(
    "fn", [fn for _, _, _, fn in CHECKS],
    ids=["%s:%s" % (suite, description)
         for suite, description, _, _ in CHECKS])
def test_check_passes(fn):
    assert fn() is True


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_descriptions_unique_within_suite(suite):
    descriptions = [description for description, _, _ in SUITES[suite]]
    assert len(set(descriptions)) == len(descriptions)


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        list(iter_checks("nonsense"))


def test_failing_check_reported_once(monkeypatch):
    entries = list(SUITES["qlc"])
    description, anchor, _ = entries[1]
    entries[1] = (description, anchor, lambda: False)
    monkeypatch.setitem(SUITES, "qlc", tuple(entries))
    lines = []
    assert run_suite("qlc", write=lines.append) is False
    failed = [line for line in lines if line.endswith(": FAIL")]
    assert failed == ["qlc: %s [%s]: FAIL" % (description, anchor)]
    assert len(lines) == len(entries)


def test_raising_check_reported_and_suite_continues(monkeypatch, capsys):
    entries = list(SUITES["monopole"])
    description, anchor, _ = entries[3]

    def inconsistent():
        raise SingularSystemError("system is inconsistent")

    entries[3] = (description, anchor, inconsistent)
    monkeypatch.setitem(SUITES, "monopole", tuple(entries))
    lines = []
    assert run_suite("monopole", write=lines.append) is False
    failed = [line for line in lines if not line.endswith(": PASS")]
    assert failed == ["monopole: %s [%s]: FAIL (SingularSystemError: system "
                      "is inconsistent)" % (description, anchor)]
    assert len(lines) == len(entries)
    assert lines[-1].startswith("monopole: %s [" % entries[-1][0])
    assert cli.main(["verify", "--suite", "monopole"]) == 1
    assert capsys.readouterr().out.count("FAIL") == 1
