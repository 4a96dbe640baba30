"""Statistics shared by the harness and compare.py.

Run as a script it checks its own math on fixed inputs (run.sh does so
before the first measured rep).
"""
import statistics
import sys


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q3) as statistics.quantiles(values, n=4) gives them; a single
    value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def best_segments(reps):
    """Sum over segments of the fastest rep's time for each: `reps` holds one
    list of segment times per rep, segment i being the same work in every
    rep. None when the reps' segments do not line up or take no time."""
    if not reps or not reps[0] or any(len(r) != len(reps[0]) for r in reps):
        return None
    total = sum(min(times) for times in zip(*reps))
    return total if total > 0 else None


def _selftest():
    failures = []

    def expect(got, want, what):
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append(f"{what}: got {got}, want {want}")

    expect(median([3.0, 1.0, 2.0]), 2.0, "median of 3")
    expect(median([4.0, 1.0, 3.0, 2.0]), 2.5, "median of 4")
    ten = [float(i) for i in range(1, 11)]
    q1, q3 = quartiles(ten)
    expect(q1, 2.75, "Q1 of 1..10")
    expect(q3, 8.25, "Q3 of 1..10")
    expect(relative_spread(ten), 5.5 / 5.5, "spread of 1..10")
    q1, q3 = quartiles([7.0])
    expect(q1, 7.0, "Q1 of one value")
    expect(q3, 7.0, "Q3 of one value")
    expect(relative_spread([5.0, 5.0, 5.0]), 0.0, "spread of equal values")
    expect(relative_spread([0.0, 0.0]), 0.0, "spread around a zero median")
    expect(best_segments([[3.0, 1.0, 2.0], [1.0, 4.0, 2.5]]), 4.0,
           "best segments of two reps")
    expect(best_segments([[2.0, 3.0]]), 5.0, "best segments of one rep")
    if best_segments([[1.0, 2.0], [1.0]]) is not None:
        failures.append("best segments of misaligned reps: want None")
    if best_segments([]) is not None or best_segments([[0.0]]) is not None:
        failures.append("best segments of no time: want None")
    for failure in failures:
        print("FAIL  " + failure)
    return not failures


if __name__ == "__main__":
    ok = _selftest()
    print("stats selftest: " + ("all checks passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)
