"""Pure logic of the serving benchmark: request sequences, statistics, the
max-rate search and the verdict check. Nothing here touches a process or a
socket, so test_bench.py exercises all of it directly."""

import json
import math
import random

# Keys of a reply that are per-request bookkeeping or serving telemetry, not
# part of the verdict (the same projection clpp-serve's socket loadgen and
# shard_scaling_bench compare).
VOLATILE_KEYS = ("id", "client", "trace_id", "queue_us", "batch_us",
                 "infer_us", "coalesced", "cached")

HOT_SET = 64          # hot-repeat: distinct snippets in the hot set
HOT_SHARE = 0.8       # hot-repeat: share of requests drawn from the hot set

P99_MIN_SAMPLES = 1000


def normalized_verdict(reply):
    """The reply minus its volatile keys, as a canonical JSON string."""
    kept = {k: v for k, v in reply.items() if k not in VOLATILE_KEYS}
    return json.dumps(kept, sort_keys=True, separators=(",", ":"))


def check_verdicts(sent_codes, replies, reference):
    """Compares each answered request's verdict with the in-process reference.

    sent_codes: code per request index; replies: index -> reply dict (error
    replies are skipped, they are counted elsewhere); reference: code ->
    reference reply. Returns the list of mismatching indices."""
    bad = []
    for k, reply in replies.items():
        if "error" in reply:
            continue
        want = reference.get(sent_codes[k])
        if want is None or normalized_verdict(reply) != normalized_verdict(want):
            bad.append(k)
    return sorted(bad)


# ------------------------------------------------------------ sequences


def distinct_sequence(pool, count, offset=0):
    """`count` snippets from `pool` starting at `offset`, none repeated."""
    if offset + count > len(pool):
        raise ValueError("snippet pool too small: need %d, have %d"
                         % (offset + count, len(pool)))
    return pool[offset:offset + count]


def hot_repeat_sequence(hot, distinct, count, seed):
    """`count` requests: exactly round(HOT_SHARE * count) from `hot`
    (uniformly), the rest the next unused snippets of `distinct`, in a
    seeded shuffled order. Returns (codes, is_hot flags)."""
    n_hot = round(HOT_SHARE * count)
    if count - n_hot > len(distinct):
        raise ValueError("snippet pool too small: need %d distinct, have %d"
                         % (count - n_hot, len(distinct)))
    rng = random.Random(seed)
    flags = [True] * n_hot + [False] * (count - n_hot)
    rng.shuffle(flags)
    codes = []
    d = 0
    for is_hot in flags:
        if is_hot:
            codes.append(hot[rng.randrange(len(hot))])
        else:
            codes.append(distinct[d])
            d += 1
    return codes, flags


def poisson_schedule(rate, count, seed):
    """Send offsets (seconds from start) of `count` Poisson arrivals."""
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


# ------------------------------------------------------------ statistics


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of an unsorted list."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1]


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def median_split(rows, band=0.1):
    """How the median request's latency splits into parts.

    rows: (latency, (part, ...)) per request. Returns the mean latency and
    the mean of each part over the requests whose latency lies in the
    middle `band` of the distribution. A median per part would not do: the
    parts' medians need not add up to the median latency when the parts
    are skewed, and the batch pass here is strongly skewed."""
    if not rows:
        raise ValueError("split of no samples")
    s = sorted(rows, key=lambda r: r[0])
    n = len(s)
    lo = min(n - 1, int(n * (0.5 - band / 2)))
    hi = max(lo + 1, math.ceil(n * (0.5 + band / 2)))
    mid = s[lo:hi]
    latency = sum(r[0] for r in mid) / len(mid)
    parts = tuple(sum(r[1][i] for r in mid) / len(mid)
                  for i in range(len(mid[0][1])))
    return latency, parts


def p99(values):
    """The 99th percentile, refused below P99_MIN_SAMPLES samples (fewer
    than ten would lie beyond it)."""
    if len(values) < P99_MIN_SAMPLES:
        raise ValueError("p99 needs %d samples, have %d"
                         % (P99_MIN_SAMPLES, len(values)))
    return percentile(values, 0.99)


# ------------------------------------------------------------ rate search

P99_LIMIT_MS = 100.0
ERROR_SHARE_LIMIT = 0.01
# "No growing backlog": the second half of a probe may not have a higher
# median latency than the first. Two medians of a steady stream differ by
# chance, so the comparison allows this much slack before calling a rise.
BACKLOG_SLACK = 1.25
BACKLOG_FLOOR_MS = 2.0


def probe_passes(latencies_ms, errors, sent):
    """Whether one open-loop probe met all three max-rate conditions.

    latencies_ms: per answered request in send order (None for an error or
    an unanswered request)."""
    if sent == 0:
        return False
    if errors / sent > ERROR_SHARE_LIMIT:
        return False
    ok = [x for x in latencies_ms if x is not None]
    if len(ok) < 2 or len(ok) < sent * (1 - ERROR_SHARE_LIMIT):
        return False
    if percentile(ok, 0.99) > P99_LIMIT_MS:
        return False
    half = len(latencies_ms) // 2
    first = [x for x in latencies_ms[:half] if x is not None]
    second = [x for x in latencies_ms[half:] if x is not None]
    if first and second and median(second) > max(
            median(first) * BACKLOG_SLACK, median(first) + BACKLOG_FLOOR_MS):
        return False
    return True


class RateSearch:
    """Adaptive staircase for the highest sustainable Poisson rate.

    Doubles the rate from `start` until a probe fails, then steps down after
    a failure and up after a pass, shrinking the step at every reversal (to
    at least `min_step`). The estimate is the geometric mean of the rates at
    which the direction reversed — the level a probe passes half the time —
    or the highest passing rate before the first reversal. Rates stay within
    [lo, hi]."""

    def __init__(self, start=8.0, lo=1.0, hi=1000.0, step=2.0, min_step=1.08):
        self.rate = start
        self.lo, self.hi = lo, hi
        self.step = step
        self.min_step = min_step
        self.last = None        # result of the previous probe
        self.reversals = []
        self.best_pass = None
        self.history = []

    def record(self, passed):
        self.history.append((self.rate, passed))
        if passed:
            self.best_pass = max(self.best_pass or 0.0, self.rate)
        if self.last is not None and passed != self.last:
            self.reversals.append(self.rate)
            self.step = max(self.min_step, math.sqrt(self.step))
        self.last = passed
        self.rate = self.rate * self.step if passed else self.rate / self.step
        self.rate = min(self.hi, max(self.lo, self.rate))

    def estimate(self):
        if len(self.reversals) >= 2:
            pts = self.reversals[1:]
            return math.exp(sum(math.log(r) for r in pts) / len(pts))
        if self.best_pass is not None:
            return self.best_pass
        return self.lo
