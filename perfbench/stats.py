"""Order statistics for latency samples."""


def quantile(values, q):
    """Linear-interpolated quantile of ``values`` at ``q`` in [0, 1]."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, n)``. With ten samples or fewer, the maximum."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n
