"""One-pass admission: the served graph is verified, Table I is one kernel.

* Verdict equivalence: :func:`repro.acfg.ingest_sample` verifies the ACFG
  the sanitizer built, structurally, and must reach exactly the verdict
  of the reference path (sanitize, then ``verify_sample`` on a freshly
  built ACFG with dataflow, keeping findings of severity >= ERROR) over
  generated, hostile, seeded-defect and fuzz-mutated samples.
* Table I: ``cfg_feature_matrix`` is bit-identical to a per-instruction
  Python loop kept here as the reference.
* Work counts: admission builds each ACFG once and runs no dataflow
  analysis (counted through monkeypatched seams, not timed).
"""

import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.acfg.features as features_module
import repro.acfg.graph as graph_module
import repro.acfg.ingest as ingest_module
import repro.staticcheck.dataflow as dataflow_module
import repro.staticcheck.verifier as verifier_module
from repro.acfg import IngestPolicy, from_sample, ingest_corpus, ingest_sample
from repro.acfg.features import NUM_FEATURES, cfg_feature_matrix
from repro.disasm import CFGBuildError, ParseError, build_cfg, parse_program
from repro.disasm.cfg import CFG, BasicBlock, EdgeKind
from repro.disasm.instruction import Instruction
from repro.disasm.isa import InstructionCategory
from repro.harden import GraphSanitizer
from repro.harden.fuzz import _mutate_text
from repro.harden.hostile import HOSTILE_KINDS, hostile_sample
from repro.harden.sanitize import QuarantineRecord
from repro.malgen import generate_corpus
from repro.malgen.corpus import LabeledSample, block_motif_tags
from repro.staticcheck import Severity, verify_sample

HOSTILE_DIR = Path(__file__).parent / "data" / "hostile"


def _sample_of(program) -> LabeledSample:
    cfg = build_cfg(program)
    return LabeledSample(
        program=program,
        cfg=cfg,
        family="unknown",
        label=0,
        motif_spans=[],
        block_tags=block_motif_tags(cfg, []),
    )


def _with_cfg(sample: LabeledSample, cfg: CFG) -> LabeledSample:
    return replace(sample, cfg=cfg)


def _seeded_defects(sample: LabeledSample) -> list[LabeledSample]:
    """Structural defects the verifier (not the sanitizer) must catch."""
    cfg = sample.cfg
    blocks = list(cfg.blocks)
    shifted = list(blocks)
    shifted[1] = replace(blocks[1], start=blocks[1].start + 1)
    jump_free = [(s, t, k) for s, t, k in cfg.edges if k is not EdgeKind.JUMP]
    retyped = [
        (s, t, EdgeKind.CALL if k is EdgeKind.FALLTHROUGH else k)
        for s, t, k in cfg.edges
    ]
    return [
        _with_cfg(sample, CFG(shifted, list(cfg.edges), cfg.name)),
        _with_cfg(sample, CFG(blocks, jump_free, cfg.name)),
        _with_cfg(sample, CFG(blocks, retyped, cfg.name)),
        _with_cfg(sample, CFG(blocks, list(cfg.edges) + [(0, 0, EdgeKind.JUMP)], cfg.name)),
    ]


def _fuzzed(corpus: list[LabeledSample], count: int, seed: int) -> list[LabeledSample]:
    rng = np.random.default_rng(seed)
    pool = [s.program.to_text() for s in corpus]
    pool += [path.read_text() for path in sorted(HOSTILE_DIR.glob("*.asm"))]
    samples = []
    for index in range(count * 4):
        text = pool[int(rng.integers(len(pool)))]
        for _ in range(int(rng.integers(1, 4))):
            text = _mutate_text(text, rng, pool)
        try:
            samples.append(_sample_of(parse_program(text, name=f"fuzz_{index}")))
        except (ParseError, CFGBuildError):
            continue
        if len(samples) == count:
            break
    return samples


@pytest.fixture(scope="module")
def admission_samples() -> list[LabeledSample]:
    corpus = generate_corpus(2, seed=41)
    samples = list(corpus)
    samples += [hostile_sample(kind, name=f"hostile_{kind}") for kind in HOSTILE_KINDS]
    for path in sorted(HOSTILE_DIR.glob("*.asm")):
        try:
            samples.append(_sample_of(parse_program(path.read_text(), name=path.stem)))
        except (ParseError, CFGBuildError):
            continue  # refused before admission; see the serve tests
    for sample in corpus[:6]:
        samples += _seeded_defects(sample)
    samples += _fuzzed(corpus, 40, seed=7)
    return samples


def _reference_ingest(sample: LabeledSample, mode: str):
    """The verdict path before one-pass admission: (fatal, records, ok)."""
    sanitizer = GraphSanitizer()
    name, family = sample.program.name, sample.family
    records = sanitizer.check_sample(sample)
    try:
        graph = from_sample(sample)
    except Exception as error:
        records.append(QuarantineRecord(
            name, family, "construction_error",
            f"{type(error).__name__}: {error}", "construction",
        ))
    else:
        records.extend(sanitizer.check_acfg(graph))
    fatal = [r for r in records if sanitizer.is_fatal(r)]
    if fatal:
        return fatal, records, False
    errors = [f for f in verify_sample(sample) if f.severity >= Severity.ERROR]
    verified = [
        QuarantineRecord(name, family, "invariant_violation", str(f), "verify")
        for f in errors
    ]
    records = records + verified
    if verified and mode == "strict":
        return verified, records, False
    return [], records, True


def _key(records):
    return [(r.reason, r.stage, r.detail) for r in records]


@pytest.mark.parametrize("mode", ["strict", "warn"])
def test_ingest_verdicts_match_reference(admission_samples, mode):
    policy = IngestPolicy(on_bad_input="quarantine", verify=mode)
    verdicts = {"ok": 0, "quarantined": 0, "invariant": 0}
    for sample in admission_samples:
        fatal, records, ok = _reference_ingest(sample, mode)
        result = ingest_sample(sample, policy)
        name = sample.program.name
        assert result.ok == ok, name
        assert _key(result.fatal) == _key(fatal), name
        assert _key(result.records) == _key(records), name
        verdicts["ok" if ok else "quarantined"] += 1
        verdicts["invariant"] += any(r.stage == "verify" for r in records)
    # The sample set exercises every verdict.
    assert verdicts["ok"] and verdicts["quarantined"] and verdicts["invariant"]


def _reference_features(cfg: CFG) -> np.ndarray:
    """Table I, one instruction at a time."""
    columns = {
        InstructionCategory.TRANSFER: 2,
        InstructionCategory.CALL: 3,
        InstructionCategory.ARITHMETIC: 4,
        InstructionCategory.COMPARE: 5,
        InstructionCategory.MOV: 6,
        InstructionCategory.TERMINATION: 7,
        InstructionCategory.DATA_DECLARATION: 8,
    }
    matrix = np.zeros((cfg.node_count, NUM_FEATURES), dtype=np.float64)
    for row, block in enumerate(cfg.blocks):
        for instruction in block.instructions:
            matrix[row, 0] += instruction.numeric_constant_count
            matrix[row, 1] += instruction.string_constant_count
            column = columns.get(instruction.category)
            if column is not None:
                matrix[row, column] += 1
        matrix[row, 9] = len(block.instructions)
        matrix[row, 10] = len({t for s, t, _ in cfg.edges if s == block.index})
        matrix[row, 11] = len(block.instructions)
    return matrix


def test_feature_kernel_bit_identical_to_reference(admission_samples):
    # Empty blocks (first and inner) keep zero code-sequence counts.
    cfg = admission_samples[0].cfg
    blocks = list(cfg.blocks)
    for index in (0, 2):
        blocks[index] = replace(blocks[index], instructions=())
    cfgs = [s.cfg for s in admission_samples] + [CFG(blocks, list(cfg.edges))]
    for cfg in cfgs:
        actual = cfg_feature_matrix(cfg)
        expected = _reference_features(cfg)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes(), cfg.name


class _Counter:
    def __init__(self, monkeypatch):
        self.calls: dict[str, int] = {}
        self._monkeypatch = monkeypatch

    def wrap(self, module, attribute: str, label: str | None = None) -> None:
        label = label or attribute
        original = getattr(module, attribute)
        self.calls.setdefault(label, 0)

        def counted(*args, **kwargs):
            self.calls[label] += 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(module, attribute, counted)


def test_admit_builds_features_twice_and_skips_dataflow(
    serve_engine, serve_corpus, monkeypatch
):
    counter = _Counter(monkeypatch)
    counter.wrap(graph_module, "cfg_feature_matrix")
    counter.wrap(verifier_module, "cfg_feature_matrix")
    for name in ("dead_stores", "unreachable_blocks"):
        counter.wrap(verifier_module, name)
        counter.wrap(dataflow_module, name, f"dataflow.{name}")
    counter.wrap(dataflow_module, "liveness")

    request = serve_engine.admit(serve_corpus[0])

    assert request.graph is not None
    assert counter.calls.pop("cfg_feature_matrix") <= 2
    assert counter.calls == {name: 0 for name in counter.calls}


@pytest.mark.parametrize("on_bad_input", [None, "quarantine"])
def test_ingest_corpus_builds_each_acfg_once(on_bad_input, monkeypatch):
    corpus = generate_corpus(1, seed=5)
    counter = _Counter(monkeypatch)
    counter.wrap(ingest_module, "from_sample")
    counter.wrap(verifier_module, "from_sample", "verifier.from_sample")

    result = ingest_corpus(
        corpus, IngestPolicy(on_bad_input=on_bad_input, verify="strict")
    )

    assert len(result.graphs) == len(corpus)
    assert counter.calls == {"from_sample": len(corpus), "verifier.from_sample": 0}


def test_feature_memo_is_thread_safe(admission_samples):
    """Threads racing on a cold memo all get the reference matrices."""
    # Hundreds of distinct rows (numeric x string constant counts) keep
    # the threads interning new rows concurrently, not just looking up.
    wide = [
        CFG([BasicBlock(0, 0, (Instruction("db", ("1",) * k + ("'s'",) * m),))], [])
        for k in range(40)
        for m in range(5)
    ]
    cfgs = wide + [s.cfg for s in admission_samples]
    expected = [_reference_features(cfg).tobytes() for cfg in cfgs]
    # Start cold: every thread interns the same first rows at once.
    features_module._row_id.cache_clear()
    features_module._ROWS = features_module._RowTable()
    mismatches: list[str] = []
    barrier = threading.Barrier(8)

    def worker(offset: int) -> None:
        barrier.wait()
        for index in range(len(cfgs)):
            k = (index + offset) % len(cfgs)
            try:
                matrix = cfg_feature_matrix(cfgs[k])
            except Exception as error:  # a lost row shows up as IndexError
                mismatches.append(f"{cfgs[k].name}: {error!r}")
                continue
            if matrix.tobytes() != expected[k]:
                mismatches.append(cfgs[k].name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(29 * i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    rows = features_module._ROWS.rows
    assert len(np.unique(rows, axis=0)) == len(rows)
