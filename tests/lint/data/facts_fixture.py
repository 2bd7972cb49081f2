"""Extractor golden fixture: one module that reaches every handler of
``repro.lint.extract`` (it is read as ``repro.sim.golden``, never run).

``tests/lint/test_facts.py`` extracts it and compares the JSON with
``facts_golden.json`` byte for byte.
"""

import heapq
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.lint.effects.contracts import declared_pure
from repro.sim.events import Timeout, Wait
from repro.units import GB, GiB, KiB

REGISTRY = {}
PENDING = []
SEEN = set()
TOTAL_ENERGY_J = 0.0
COUNTER = 0
PEAK = 0
LIMIT: int = 8
UNSET: float

_rng = np.random.default_rng(7)
STAMP = time.time()
print("loading", LIMIT)


@dataclass
class PoolConfig:
    capacity_bytes: int = 4 * GiB
    window_s: float = 0.5
    label: str = None
    tags: list = field(default_factory=list)

    def usable_bytes(self):
        return self.capacity_bytes - 64 * KiB


class Tracker:
    def __init__(self, sim, budget_bytes, seed=None, *, energy_j=0.0):
        self.sim = sim
        self.queue = Queue()
        self.seen = set()
        self.log = []
        self.totals = {}
        self.peak_s = 0.0
        self.budget_bytes = budget_bytes
        self.rng = np.random.default_rng(seed)
        self.energy_j = energy_j

    def headroom(self):
        return self.budget_bytes - 2 * GiB

    def run(self, items):
        for name, value in REGISTRY.items():
            self.totals[name] = self.totals.get(name, 0.0) + value
            self.log.append(name)
            self.queue.push(name)
            helper(value)
        for key in sorted(self.totals):
            self.seen.add(key)
        for item in {1, 2}:
            note(item)
        self.totals["n"] = self.totals.get("n", 0) + 1
        self.peak_s = max(self.peak_s, items[0])
        if items[1] > self.peak_s:
            self.peak_s = items[1]
        self.energy_j += items[0] / 3
        self.count = 0
        self.count += 1
        self.count *= 2
        a, self.log[0] = 1, 2
        b, self.totals["m"] = 1, self.totals.get("m", 0.0) + 1.5
        self.totals["p"] = self.totals["q"] = self.totals.get("p", 0.0) + 1.5
        heapq.heappush(self.log, 3)
        self.queue.record(len(self.log))
        self.queue.set(1)
        self.queue.update({})
        self.queue.observe(self.peak_s)
        del self.totals["n"]
        return [x for x in REGISTRY.values() if x > self.peak_s]

    def process(self, sim):
        while self.peak_s < 10:
            yield Timeout(1.5)
            self.log.append(sim.now)
        yield Timeout(0)
        yield Timeout(-1)
        yield Timeout(self.sim.tick_s)
        yield Wait(self.sim.signal)
        yield from self.child(sim)

    def child(self, sim):
        for _ in range(3):
            yield Timeout(2.0)
        sim.schedule(0.0, self.process)
        sim.schedule(delay=self.sim.tick_s, callback=self.tick)
        sim.schedule(1, lambda ev: self.tick(ev))
        sim.spawn(self.process(sim))
        self.sim.trigger(self.sim.signal, None, 0)
        self.sim.trigger(self.sim.signal)
        self.worker.interrupt()
        self.event_queue.push_wakeup(3)
        for key in REGISTRY.keys():
            sim.spawn(_strike(sim, key))
        scheduler.schedule(5, self.tick)
        return self.sim

    def tick(self, event):
        self.log.append(event)


def _strike(sim, name):
    yield Timeout(1.0)
    PENDING.append(name)
    REGISTRY[name] = len(PENDING)


def note(x):
    return x


def helper(value, scale=1.0, *rest, bins=[], cache={}, seen=set(), **extra):
    global COUNTER, TOTAL_ENERGY_J, PEAK
    COUNTER += 1
    COUNTER = COUNTER + 1
    TOTAL_ENERGY_J += value * 0.5
    PEAK = max(PEAK, value)
    if value > PEAK:
        PEAK = value
    del REGISTRY[value]
    bins.append(value)
    random.shuffle(PENDING)
    setattr(cache, "x", 1)
    print(value)
    data = json.load(open("x.json"))
    Path("out.txt").write_text(str(data))
    time.sleep(0.1)
    started = time.time()
    if SEEN and COUNTER:
        pass
    assert PEAK
    label = "hot" if PEAK else "cold"
    obs.inc(PEAK)
    draw = _rng.normal()
    other = np.random.default_rng()
    pinned = random.Random(3)
    return value * scale + started + draw, label, other, pinned


def make_rng(seed=None, root_seed: int = 0):
    seq = np.random.SeedSequence(root_seed)
    children = seq.spawn(2)
    local = np.random.default_rng(seed)
    unseeded = np.random.default_rng(None)
    literal = np.random.default_rng(2**32 - 1)
    from_child = np.random.default_rng(children[0])
    keyword = random.Random(x=seed)
    return local


def make_unseeded():
    return np.random.default_rng()


def forward(seed):
    return make_rng(seed)


def capacity_bytes(n_pages, page_bytes):
    total_bytes = n_pages * page_bytes * GiB
    return total_bytes


def mixed_bytes():
    return capacity_bytes(2, 4) + 8 * GB


def duration_s(size_bytes, rate_bytes_per_s: float):
    window_s = size_bytes / rate_bytes_per_s
    refresh_s = capacity_bytes(size_bytes, 1)
    duration = helper(size_bytes, scale=window_s, *PENDING, **REGISTRY)
    return window_s


@declared_pure
def outer(a, b=None):
    total = 0

    def inner(x):
        def deepest():
            return x + total + a
        return deepest()

    if a:
        def branch(y):
            return y * b
        total += branch(2)

    key = lambda q: q + total
    return inner(total), key


async def coro(sim, n):
    async def step():
        return n

    def sync_inner():
        sim.log.append(n)
        return sim

    return await step()


class Queue:
    def push(self, item):
        self.items.append(item)

    def drain(self, sim, pending, cfg):
        local = list(pending)
        for i, x in enumerate(self.items):
            self.last = x
        for x in set(PENDING):
            note(x)
        for x in [1, 2]:
            note(x)
        for x in {"a": 1}:
            note(x)
        for x in PENDING:
            note(x)
        for x in fetch():
            note(x)
        for x in local:
            note(x)
        fetch().value = 1
        make().random()
        first = fetch()[0]
        self.count += first / 2
        self.count += window_s
        self.count += cfg.window_s
        self.items[0] = self.items[0] + 1
        fetch()[0] += 1
        yield Timeout(first + 1)
        yield Timeout()
        sim.schedule(first * 2, note)
        sim.schedule(1, lambda ev: None)
        sim.schedule(1, module.handler)
        sim.schedule(1, HANDLERS[0])
        size: int = 4
        self.size: float = 1.0
        bare: int
        del (self.a, self.b)
        return

    def spawner(self, sim):
        def proc():
            yield Timeout(1)

        sim.spawn(proc())
        base = np.random.default_rng(5)
        again = np.random.default_rng(base)
        fresh = np.random.SeedSequence()
        return capacity_bytes(2, 4) + 8 * units.GiB


def set_default(marks={1}):
    return marks


sim.schedule(2.5, note)
_rng.random()
