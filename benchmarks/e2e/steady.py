"""A clock that counts the seconds of a machine running at one fixed speed.

The sandbox this benchmark runs in is a few cores of a shared host, and the
host changes speed under it: the same interpreter loop takes 12.8 ms or
21 ms from one second to the next, and a whole feed takes 3.2 s or 5.4 s
from one run to the next (1.7x) with nothing changed.  CPU time moves with
wall time, so it is the processor itself that is slower (a busy sibling
thread, a colder cache), not time taken away.  Raw wall seconds therefore
say more about the neighbours than about the program.

``SteadyClock`` measures how slow the machine is *while the program runs*
and divides it out.  A timer signal interrupts the main thread every
``TICK_INTERVAL_S``; the handler times two small fixed kernels that belong
to the benchmark and never change with ``src/repro`` and turns them into a
*slowdown*: 1.0 in the reference machine state, 1.7 when everything takes
1.7x as long.  The work seconds between two ticks are divided by the mean
slowdown of the two ticks, and the ticks' own time is left out.

Two kernels, because a busy neighbour does not slow all code alike: a
*tight* one (a hand-written JSON parser over one short text: few branches
mispredicted, everything in the first-level cache) and a *wide* one (the
same parser over a pool of different texts, then type checks, dictionary
joins and an upsert into a table of a few MB: the shape of the feeds
themselves).  Over twelve runs of each workload the tight kernel alone left
5-15 % of run-to-run spread (quartile distance / median), the wide one alone
5-10 %, their mean 4-9 %, against 17-24 % for raw wall seconds; a
memory-latency kernel (pointer chase through 8-32 MB) added nothing.

What the clock reports is thus "seconds on a machine where the kernels take
``TIGHT_REFERENCE_S`` and ``WIDE_REFERENCE_S``", which is this sandbox in
its fast state.  A faster program still reads proportionally fewer steady
seconds; a faster or slower *machine* does not.
"""

from __future__ import annotations

import json
import random
import signal
import time
from typing import List, Optional

#: wall seconds between two slowdown samples
TICK_INTERVAL_S = 0.05
#: kernel seconds in the reference machine state (slowdown 1.0)
TIGHT_REFERENCE_S = 150e-6
WIDE_REFERENCE_S = 145e-6

TIGHT_RECORDS = 6
WIDE_RECORDS = 4
WIDE_POOL = 1024  # different texts
WIDE_TABLE = 4096  # records kept


def monotonic() -> float:
    """CLOCK_MONOTONIC: reads the same in the parent and in its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ------------------------------------------------------------------- kernels

_TEXT = json.dumps(
    {
        "id": 123456789,
        "text": "a tweet about #python for @someone, as long as most are",
        "user": {"id": 42, "name": "Some Body", "followers": 1234, "lang": "en"},
        "place": {"country": "US", "bbox": [1.5, 2.5, 3.5, 4.5]},
        "created_at": "2019-01-01T00:00:00Z",
        "retweets": 7,
        "tags": ["a", "b", "c"],
    }
)
_SPACE = " \t\n\r"
_NUMBER = "0123456789-+.eE"


def _parse(s: str, i: int):
    """Recursive descent over the JSON subset ``_TEXT`` uses."""
    ch = s[i]
    while ch in _SPACE:
        i += 1
        ch = s[i]
    if ch == "{":
        out = {}
        i += 1
        while True:
            while s[i] in _SPACE:
                i += 1
            if s[i] == "}":
                return out, i + 1
            key, i = _parse(s, i)
            while s[i] in _SPACE:
                i += 1
            value, i = _parse(s, i + 1)  # past the colon
            out[key] = value
            while s[i] in _SPACE:
                i += 1
            if s[i] == ",":
                i += 1
    if ch == "[":
        items = []
        i += 1
        while True:
            while s[i] in _SPACE:
                i += 1
            if s[i] == "]":
                return items, i + 1
            value, i = _parse(s, i)
            items.append(value)
            while s[i] in _SPACE:
                i += 1
            if s[i] == ",":
                i += 1
    if ch == '"':
        end = s.index('"', i + 1)
        return s[i + 1 : end], end + 1
    end = i
    while s[end] in _NUMBER:
        end += 1
    token = s[i:end]
    return (float(token) if "." in token else int(token)), end


_LANGUAGES = ("en", "es", "de", "fr", "ja")
_FIELD_TYPES = {
    "id": int, "text": str, "user": dict, "created_at": str, "retweets": int,
    "country": str, "place": dict, "tags": list,
}


def _tweet(rng: random.Random, words: List[str], key: int) -> dict:
    tweet = {
        "id": key,
        "text": " ".join(rng.choice(words) for _ in range(rng.randint(4, 24))),
        "user": {
            "id": rng.randrange(10**6),
            "name": rng.choice(words) + " " + rng.choice(words),
            "followers": rng.randrange(10**5),
            "lang": rng.choice(_LANGUAGES),
        },
        "created_at": "2019-%02d-%02dT%02d:00:00Z"
        % (rng.randint(1, 12), rng.randint(1, 28), rng.randint(0, 23)),
        "retweets": rng.randrange(1000),
        "country": rng.choice(words),
    }
    if rng.random() < 0.5:
        tweet["place"] = {
            "country": rng.choice(words),
            "bbox": [rng.random() * 90 for _ in range(4)],
        }
    if rng.random() < 0.7:
        tweet["tags"] = [rng.choice(words) for _ in range(rng.randint(0, 5))]
    return tweet


class _Kernels:
    """The two fixed pieces of work a tick times."""

    def __init__(self):
        rng = random.Random(0)
        words = ["w%04d" % i for i in range(3000)]
        self.pool = [
            json.dumps(_tweet(rng, words, key)) for key in range(WIDE_POOL)
        ]
        self.reference = {
            word: {"word": word, "rating": rng.randrange(100)} for word in words
        }
        self.table = {
            key: json.loads(self.pool[key % WIDE_POOL])
            for key in range(WIDE_TABLE)
        }
        self.key = 0

    def tight(self) -> None:
        for _ in range(TIGHT_RECORDS):
            _parse(_TEXT, 0)

    def wide(self) -> None:
        key = self.key
        pool, reference, table = self.pool, self.reference, self.table
        for _ in range(WIDE_RECORDS):
            key = (key + 7919) % WIDE_TABLE
            record, _ = _parse(pool[key % WIDE_POOL], 0)
            for name, value in record.items():
                if not isinstance(value, _FIELD_TYPES[name]):
                    raise TypeError(name)
            match = reference.get(record["country"])
            record["rating"] = match["rating"] if match else None
            record["tag_ratings"] = [
                reference[tag]["rating"]
                for tag in record.get("tags", ())
                if tag in reference
            ]
            record["words"] = len(record["text"].split())
            table[key] = record
        self.key = key


# --------------------------------------------------------------------- clock


class SteadyClock:
    """Steady seconds since ``origin`` (a ``monotonic()`` reading)."""

    def __init__(self, origin: Optional[float] = None,
                 interval: float = TICK_INTERVAL_S):
        entered = monotonic()
        self.interval = interval
        self._kernels = _Kernels()
        # building the kernels is the clock's cost, not the program's:
        # the seconds between ``origin`` and here count, those do not
        self._last = monotonic() - (0.0 if origin is None else entered - origin)
        self._steady = 0.0
        self._slowdown: Optional[float] = None
        self._in_tick = False
        self._previous_handler = None
        #: wall seconds outside ticks since ``origin``, as of the last tick
        self.wall = 0.0
        self.ticks = 0

    def _sample(self) -> float:
        """Each kernel twice, the faster of the two: one interrupt or one
        descheduling in the middle of a sample does not count."""
        kernels = self._kernels
        t0 = monotonic()
        kernels.tight()
        t1 = monotonic()
        kernels.wide()
        t2 = monotonic()
        kernels.tight()
        t3 = monotonic()
        kernels.wide()
        t4 = monotonic()
        return 0.5 * (
            min(t1 - t0, t3 - t2) / TIGHT_REFERENCE_S
            + min(t2 - t1, t4 - t3) / WIDE_REFERENCE_S
        )

    def _tick(self, signum=None, frame=None) -> None:
        if self._in_tick:
            return
        self._in_tick = True
        begin = monotonic()
        slowdown = self._sample()
        before = self._slowdown if self._slowdown is not None else slowdown
        self._steady += (begin - self._last) / ((before + slowdown) / 2.0)
        self.wall += begin - self._last
        self._slowdown = slowdown
        self.ticks += 1
        self._last = monotonic()
        self._in_tick = False

    def start(self) -> "SteadyClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def now(self) -> float:
        """Takes a sample, so an interval always ends where it is read."""
        self._tick()
        return self._steady

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
