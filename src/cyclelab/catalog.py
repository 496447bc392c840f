"""What the command line offers by name, apart from the layers that use it.

The targets and grid bound of exhaust, the suites and count presets of
verify: the CLI parser lists and checks them without importing those
modules, so a command loads only the layers it runs.
"""

TARGETS = ("r_s", "r_md", "r_d")
# grid_axis: points per axis at most.  An eval grid keeps about 150 bytes
# of columns per point, so a fresh 401 x 401 eval peaks near 70 MB
MAX_GRID_N = 401

SUITE_NAMES = ("invariance", "psh", "exhaustion", "incidence", "levi")

COUNTS = {
    "quick": {"pairs": 8, "metric_pairs": 20, "iwasawa": 20, "discs": 24,
              "levi_points": 8, "closed_form": 20, "paths": 2,
              "grid_n": 11, "cycles": 10, "certificates": 6},
    "full": {"pairs": 50, "metric_pairs": 100, "iwasawa": 100, "discs": 200,
             "levi_points": 50, "closed_form": 100, "paths": 10,
             "grid_n": 41, "cycles": 50, "certificates": 50},
}
