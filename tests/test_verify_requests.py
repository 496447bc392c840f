"""Verify suites serve their checks' optimizer rows together.

A check that evaluates r_md or r_d asks for its rows; run_suite makes one
batch_values call per scenario and target for all the checks of a suite.
Run alone, each such check gives the payload it has in its suite.
"""

import pytest

from cyclelab import verify
from cyclelab.verify import (COUNTS, check_closed_form, check_closed_form_su21,
                             check_compact_invariance, check_degenerate_grid,
                             check_divergence, check_submeanvalue, run_suite)

QUICK = COUNTS["quick"]
BOTH = ("su11", "su21")

# the checks that evaluate r_md or r_d, by suite
REQUESTING = {
    "invariance": (check_compact_invariance,),
    "psh": (check_submeanvalue,),
    "exhaustion": (check_closed_form, check_closed_form_su21, check_divergence,
                   check_degenerate_grid),
}


def test_suite_makes_one_call_per_scenario_and_target(count_calls, monkeypatch):
    calls = count_calls(verify, "batch_values")
    asked = []
    counted = verify.batch_values

    def record(rows, sc, target):
        asked.append((sc.name, target))
        return counted(rows, sc, target)

    monkeypatch.setattr(verify, "batch_values", record)
    expect = {
        "invariance": [("su11", "r_md"), ("su21", "r_md")],
        "psh": [("su11", "r_md"), ("su21", "r_md")],
        "exhaustion": [("su11", "r_d"), ("su11", "r_md"),
                       ("su21", "r_d"), ("su21", "r_md")],
    }
    for suite, pairs in expect.items():
        del calls[:], asked[:]
        assert run_suite(suite, QUICK, 1, BOTH).passed
        assert len(calls) == len(pairs), suite
        assert sorted(asked) == pairs, suite


@pytest.mark.parametrize("scenarios", [BOTH, ("su11",), ("su21",)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_checks_alone_equal_their_suite_entries(seed, scenarios):
    for suite, checks in REQUESTING.items():
        entries = {c["name"]: c for c in
                   run_suite(suite, QUICK, seed, scenarios).payload()["checks"]}
        # a closed form of a scenario the run leaves out gives no result
        alone = {res.name: res.payload() for res in
                 (check(QUICK, seed, scenarios) for check in checks) if res}
        assert alone and alone == {name: entries[name] for name in alone}


def test_requests_get_their_values_in_request_order(su11, su21):
    # measurements served together ask for the targets in different
    # orders, next to a plain measurement
    from cyclelab.exhaust import batch_values, seeded_disc_rows

    for sc in (su11, su21):
        cycles = seeded_disc_rows(sc, "r_md", 2, seed=5)
        points = seeded_disc_rows(sc, "r_d", 2, seed=6)

        def cycle_first(sc, counts, seed):
            return (yield [("r_md", cycles), ("r_d", points)])

        def point_first(sc, counts, seed):
            return (yield [("r_d", points[:3]), ("r_md", cycles[5:]), ("r_md", cycles[:2])])

        def plain(sc, counts, seed):
            return "plain"

        got = verify._measure([cycle_first, plain, point_first], sc, QUICK, 1)
        want = [[batch_values(cycles, sc, "r_md"), batch_values(points, sc, "r_d")],
                "plain",
                [batch_values(points[:3], sc, "r_d"), batch_values(cycles[5:], sc, "r_md"),
                 batch_values(cycles[:2], sc, "r_md")]]
        assert got[1] == want[1]
        for mine, theirs in ((got[0], want[0]), (got[2], want[2])):
            assert [v.tobytes() for v in mine] == [v.tobytes() for v in theirs]
