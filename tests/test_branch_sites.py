"""The su11/su21 differences stay in the scenario geometries.

A scenario-branch site is a line outside scenarios.py that asks which
scenario, or which cycle dimension, it runs in.  Their count may only
fall: lower SITE_CEILING when a change removes sites.
"""

import re
from pathlib import Path

import cyclelab

SITE_PATTERN = re.compile(
    r'cycle_dim (==|!=)|sc\.n (==|>|<)|\bn == 2|point is (not )?None'
    r'|dual is (not )?None|"su11" (not )?in|self\.dim == 0|dims == 2|point_cycles')
SITE_CEILING = 6


def test_scenario_branch_sites_only_fall():
    package = Path(cyclelab.__file__).parent
    sites = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(package.glob("*.py")) if path.name != "scenarios.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if SITE_PATTERN.search(line)]
    assert len(sites) <= SITE_CEILING, "\n".join(sites)
