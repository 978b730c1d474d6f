"""The verify suite's pass rules, report lines and reproducibility."""

import inspect
import math
import re

import pytest

from mochain import verify
from mochain.verify import ALL_CHECKS, RULES, CheckResult, run_verify

# worst=<value> <rule> <bound> as line() prints it; a range bound is [low, high]
LINE_RULE = re.compile(r": worst=(\S+) (<=|>=|==|<|>|in) (\[[^\]]*\]|\S+) ")


def printed_rule(line: str) -> tuple[str, float | tuple[float, float]]:
    rule, bound = LINE_RULE.search(line).group(2, 3)
    if rule == "in":
        low, high = bound.strip("[]").split(", ")
        return rule, (float(low), float(high))
    return rule, float(bound)


@pytest.mark.parametrize("rule, bound, passed", [
    ("<", 1.0, False),
    ("<=", 1.0, True),
    ("==", 1.0, True),
    (">", 1.0, False),
    (">=", 1.0, True),
    ("in", (1.0, 2.0), True),
    ("in", (0.0, 1.0), True),
    ("in", (math.nextafter(1.0, 2.0), 2.0), False),
    ("in", (0.0, math.nextafter(1.0, 0.0)), False),
])
def test_value_at_its_bound(rule, bound, passed):
    result = CheckResult("edge", 1.0, rule, bound)
    assert result.passed is passed
    assert result.line().startswith("PASS edge" if passed else "FAIL edge")
    assert printed_rule(result.line()) == (rule, bound)


@pytest.mark.parametrize("rule, bound",
                         [(rule, 0.0) for rule in RULES if rule != "in"] + [("in", (-1.0, 1.0))])
def test_nan_fails_every_rule(rule, bound):
    assert not CheckResult("nan", math.nan, rule, bound).passed


def test_no_check_takes_an_argument():
    checks = [f for name, f in vars(verify).items() if name.startswith("check_")]
    assert set(checks) == set(ALL_CHECKS)
    assert all(not inspect.signature(check).parameters for check in checks)


def test_every_line_prints_the_rule_that_decides(verify_results):
    assert len(verify_results) == len(ALL_CHECKS) == 22
    for result in verify_results.values():
        rule, bound = printed_rule(result.line())
        assert (rule, bound) == (result.rule, result.bound), result.line()


@pytest.mark.parametrize("name, rule_text", [
    ("rk4-fourth-order-convergence", "in [14.0, 18.0]"),
    ("physicality-under-evolution", ">= 0.499999999"),
    ("steering-strictly-below-entanglement", "> 0.0"),
    ("monogamy-residuals-nonnegative", ">= -1e-09"),
    ("boundary-continuity", "< 1e-06"),
    ("boundary-entanglement-ln2", "< 1e-12"),
])
def test_line_prints_the_bound_its_worst_satisfies(verify_results, name, rule_text):
    result = verify_results[name]
    assert f"{name}: worst={result.worst:.3e} {rule_text} (" in result.line()
    assert result.passed


def test_two_runs_report_identically(verify_results):
    def key(result):
        return result.name, result.passed, result.worst, result.detail

    assert [key(r) for r in run_verify()] == [key(r) for r in verify_results.values()]
