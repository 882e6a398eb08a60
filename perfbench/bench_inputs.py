"""Seeded request streams: the only inputs the served program receives.

Every request is assembly text (``submit_text``), generated from the
workload seed by :mod:`repro.malgen` or taken from
:mod:`repro.harden.hostile`.  The stream is a pure function of
``(workload, seed, index)``: request ``i`` is the same listing on every
run with that seed.  :meth:`RequestStream.prefetch` generates the
requests a run will send before its timed window, so generation does
not compete with serving.

Families cycle through seeded permutations, so each run sees a balanced
family mix; paper-scale also evens out listing sizes (see
PAPER_SCALE_BLOCKS).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from bench_spec import WORKLOADS
from repro.harden.hostile import HOSTILE_KINDS, hostile_sample
from repro.malgen.families import FAMILIES, generate_program

#: Malformed listings the parser refuses, modelled on the hostile test
#: corpus.  The daemon lets their ``ParseError`` escape untyped; the
#: benchmark counts that as a failure instead of dropping the listings.
MALFORMED_KINDS = ("dangling_jump", "unknown_mnemonic")

#: Hostile kinds of the triage-cold share: every repro.harden.hostile
#: kind plus the malformed listings.
HOSTILE_SHARE_KINDS = tuple(sorted(HOSTILE_KINDS)) + MALFORMED_KINDS

#: One request in this many is hostile on triage-cold.
HOSTILE_EVERY = 16

#: The triage-repeat pool takes, of POOL_CANDIDATES seeded programs per
#: family, those at these block-count ranks: the middles of the four
#: size quartiles.  Block counts vary up to fivefold within a family
#: (Vundo 7-32, Sdbot 19-144); four random draws per family moved the
#: pool's median listing, and latency_p50_ms with it, by about a tenth
#: from seed to seed.  Stratified draws keep the size profile while the
#: listings still change with the seed.
POOL_CANDIDATES = 16
POOL_RANKS = (2, 6, 10, 14)

#: Unique listings in the triage-repeat pool.  Fits the daemon's
#: explanation cache (see run.DEFAULT_CACHE_CAPACITY).
REPEAT_POOL = len(POOL_RANKS) * len(FAMILIES)

#: paper-scale listings aim at this many blocks.  Equal sizes keep a
#: run's cost and memory from hinging on which programs it drew.
PAPER_SCALE_BLOCKS = 700

#: paper-scale starting multiplier per family: the mean block count of
#: six programs per family at multiplier 10 (Vundo 162 ... Rbot 1369),
#: scaled to PAPER_SCALE_BLOCKS.  Each program is then regenerated once
#: at the multiplier its own size calls for (see _paper_scale).
PAPER_SCALE_MULTIPLIER = {
    "Bagle": 36, "Bifrose": 20, "Hupigon": 13, "Ldpinch": 22,
    "Lmir": 10, "Rbot": 5, "Sdbot": 9, "Swizzor": 28,
    "Vundo": 43, "Zbot": 15, "Zlob": 27, "Benign": 16,
}

#: Program seeds start here, far above the training corpus's seeds
#: (``generate_corpus`` uses ``seed * 100_000 + label * 1_000 + i``).
_SEED_BASE = 10_000_000


@dataclass(frozen=True)
class Request:
    name: str
    text: str
    #: "clean" or the hostile kind.
    kind: str
    #: Generator label for clean requests, else None.
    family: str | None
    program_seed: int | None
    multiplier: int
    #: "response" for a clean listing (and a flag-only hostile kind),
    #: "rejected" for a fatal hostile one.
    expect: str


def _family(seed: int, index: int) -> str:
    cycle, position = divmod(index, len(FAMILIES))
    order = np.random.default_rng([seed, cycle, 7]).permutation(len(FAMILIES))
    return FAMILIES[int(order[position])]


def _clean(name: str, family: str, program_seed: int, multiplier: int) -> Request:
    program, _ = generate_program(family, program_seed, multiplier)
    return Request(
        name=name,
        text=program.to_text(),
        kind="clean",
        family=family,
        program_seed=program_seed,
        multiplier=multiplier,
        expect="response",
    )


def _paper_scale(name: str, family: str, program_seed: int) -> Request:
    """A listing of about PAPER_SCALE_BLOCKS blocks.

    Block counts vary +-20% within a family at a fixed multiplier, and
    explanation cost grows faster than linearly in them, so the first
    draw's size sets the multiplier of the one regeneration.
    """
    from repro.disasm import build_cfg

    multiplier = PAPER_SCALE_MULTIPLIER[family]
    program, _ = generate_program(family, program_seed, multiplier)
    blocks = len(build_cfg(program).blocks)
    multiplier = max(1, round(multiplier * PAPER_SCALE_BLOCKS / blocks))
    return _clean(name, family, program_seed, multiplier)


def _repeat_pool(workload: str, seed: int) -> list[Request]:
    """Four listings per family at fixed size ranks (see POOL_RANKS)."""
    from repro.disasm import build_cfg

    pool = []
    for f, family in enumerate(FAMILIES):
        candidates = []
        for i in range(POOL_CANDIDATES):
            program_seed = (
                _SEED_BASE + 1_000_000 + seed * 1_000 + f * POOL_CANDIDATES + i
            )
            program, _ = generate_program(family, program_seed, 1)
            candidates.append((len(build_cfg(program).blocks), program_seed))
        candidates.sort()
        pool += [
            _clean(f"{workload}-{seed}-pool{len(pool) + j}", family,
                   candidates[rank][1], 1)
            for j, rank in enumerate(POOL_RANKS)
        ]
    return pool


def malformed_listing(kind: str, rng: np.random.Generator) -> str:
    """A listing the parser rejects; registers and labels vary by seed."""
    register = ("eax", "ebx", "ecx", "edx")[int(rng.integers(4))]
    value = int(rng.integers(1, 1000))
    if kind == "dangling_jump":
        body = [f"    cmp {register}, {value}",
                f"    je missing_{value}", "    ret"]
    elif kind == "unknown_mnemonic":
        body = [f"    mov {register}, {value}",
                f"    frobnicate {register}, ebx", "    ret"]
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return "\n".join(["start:"] + body)


def _hostile(name: str, kind: str, rng: np.random.Generator) -> Request:
    if kind in MALFORMED_KINDS:
        text = malformed_listing(kind, rng)
        fatal = True
    else:
        _, fatal = HOSTILE_KINDS[kind]
        text = hostile_sample(kind, name=name).program.to_text()
    # A leading comment keeps every listing unique without changing the
    # program the parser sees.
    text = f"; {name}\n{text}"
    return Request(
        name=name,
        text=text,
        kind=kind,
        family=None,
        program_seed=None,
        multiplier=1,
        expect="rejected" if fatal else "response",
    )


class RequestStream:
    """The deterministic, lazily extended request sequence of a workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._items: list[Request] = []
        self._lock = threading.Lock()
        #: The triage-repeat pool; empty for the other workloads.
        self.pool: list[Request] = []
        if workload == "triage-repeat":
            self.pool = _repeat_pool(workload, seed)

    def _make(self, index: int) -> Request:
        seed, workload = self.seed, self.workload
        name = f"{workload}-{seed}-{index}"
        program_seed = _SEED_BASE + seed * 100_000 + index
        if workload == "triage-repeat":
            # Each pass visits every pool listing once, in seeded order.
            cycle, position = divmod(index, len(self.pool))
            order = np.random.default_rng([seed, cycle, 11]).permutation(
                len(self.pool)
            )
            return self.pool[int(order[position])]
        if workload == "triage-cold":
            block, position = divmod(index, HOSTILE_EVERY)
            rng = np.random.default_rng([seed, block, 13])
            if position == int(rng.integers(HOSTILE_EVERY)):
                offset = int(np.random.default_rng([seed, 17]).integers(1 << 16))
                kind = HOSTILE_SHARE_KINDS[(block + offset) % len(HOSTILE_SHARE_KINDS)]
                return _hostile(name, kind, rng)
            return _clean(name, _family(seed, index), program_seed, 1)
        return _paper_scale(name, _family(seed, index), program_seed)

    def __getitem__(self, index: int) -> Request:
        with self._lock:
            while len(self._items) <= index:
                self._items.append(self._make(len(self._items)))
            return self._items[index]

    def prefetch(self, count: int) -> None:
        if count > 0:
            self[count - 1]
