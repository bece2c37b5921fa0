"""Self-test of the span self-time arithmetic and of metric-name validity.

Run as ``python3 spdebench/selftest.py``; ``run.py`` also runs it first.
"""

import sys

import numpy as np

from tracing import self_times, valid_metric_name


def check_self_times():
    # 0: root [0, 10] with nested children 1 [1, 4] and 2 [3, 6] (overlapping)
    #    and 3 [8, 12] reaching past the root's end;
    # 4: grandchild [1.5, 2] inside 1; 5: child of 2 duplicating its interval;
    # 6: a second root [20, 21] with an empty child 7 [20.5, 20.5].
    start = [0.0, 1.0, 3.0, 8.0, 1.5, 3.0, 20.0, 20.5]
    end = [10.0, 4.0, 6.0, 12.0, 2.0, 6.0, 21.0, 20.5]
    parent = [-1, 0, 0, 0, 1, 2, -1, 6]
    got = self_times(start, end, parent)
    # root: 10 - |[1,6] u [8,10]| = 10 - 7; 1: 3 - 0.5; 2: 3 - 3; 3: no children
    want = [3.0, 2.5, 0.0, 4.0, 0.5, 3.0, 1.0, 0.0]
    assert np.allclose(got, want), (got, want)
    # children listed out of start order are merged the same way
    got = self_times([0.0, 5.0, 1.0, 2.0], [10.0, 7.0, 3.0, 6.0], [-1, 0, 0, 0])
    assert np.allclose(got, [4.0, 2.0, 2.0, 4.0]), got  # 10 - |[1, 7]|
    # no spans at all
    assert self_times([], [], []).size == 0
    # random trees against a direct union of each span's clipped children
    rng = np.random.default_rng(7)
    for _ in range(20):
        size = int(rng.integers(1, 40))
        start = rng.uniform(0.0, 10.0, size)
        end = start + rng.uniform(0.0, 3.0, size)
        parent = np.array([int(rng.integers(-1, i)) if i else -1 for i in range(size)])
        want = []
        for i in range(size):
            clipped = sorted(
                (max(start[j], start[i]), min(end[j], end[i]))
                for j in np.flatnonzero(parent == i)
            )
            covered, reach = 0.0, start[i]
            for a, b in clipped:
                covered += max(0.0, b - max(a, reach))
                reach = max(reach, b)
            want.append(end[i] - start[i] - covered)
        assert np.allclose(self_times(start, end, parent), want)


def check_metric_names():
    for name in ("ops_per_s", "harness.reference_runs_per_path",
                 "coefficients.PropBF.s", "a-b_c.9", "9lives", "x" * 64):
        assert valid_metric_name(name), name
    for name in ("", ".hidden", "_x", "-x", "has space", "a/b", "µs",
                 "x" * 65, "tab\t", None, 3):
        assert not valid_metric_name(name), name


def run():
    check_self_times()
    check_metric_names()


if __name__ == "__main__":
    run()
    print("selftest ok")
    sys.exit(0)
