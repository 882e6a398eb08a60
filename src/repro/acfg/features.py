"""Block-level features — exactly the 12 attributes of the paper's Table I.

Ten are generated from the code sequence (constant counts and counts of
each instruction category) and two from the node structure (# offspring,
i.e. the out-degree, and # instructions in the vertex).

Table I is defined once, per instruction: :func:`_row_id` derives one
instruction's nine code-sequence counts (columns 0-8), memoised on the
instruction's value because programs repeat the same instructions over
and over.  A block's row is the sum of its instructions' rows plus the
instruction-count and out-degree columns; :func:`cfg_feature_matrix`
takes every block's sum in one segment sum over the instruction rows.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from repro.disasm.cfg import BasicBlock, CFG
from repro.disasm.instruction import Instruction
from repro.disasm.isa import InstructionCategory

__all__ = ["FEATURE_NAMES", "NUM_FEATURES", "block_features", "cfg_feature_matrix"]

#: Order matches Table I top-to-bottom.
FEATURE_NAMES: tuple[str, ...] = (
    "numeric_constants",
    "string_constants",
    "transfer_instructions",
    "call_instructions",
    "arithmetic_instructions",
    "compare_instructions",
    "mov_instructions",
    "termination_instructions",
    "data_declaration_instructions",
    "total_instructions",
    "offspring",
    "instructions_in_vertex",
)

NUM_FEATURES: int = len(FEATURE_NAMES)

#: Columns 0-8 come from the code sequence, one count per instruction.
_CODE_COLUMNS = 9

_CATEGORY_COLUMN: dict[InstructionCategory, int] = {
    InstructionCategory.TRANSFER: 2,
    InstructionCategory.CALL: 3,
    InstructionCategory.ARITHMETIC: 4,
    InstructionCategory.COMPARE: 5,
    InstructionCategory.MOV: 6,
    InstructionCategory.TERMINATION: 7,
    InstructionCategory.DATA_DECLARATION: 8,
}

#: Distinct instructions memoised.  A 480-listing triage stream holds
#: about 7k distinct instructions, so the LRU bound keeps every hot one
#: while capping the memo at a few MB on unbounded unique input.
_ROW_CACHE_SIZE = 1 << 13


class _RowTable:
    """The distinct code-sequence rows; the memo hands out their indices.

    There are few (a row is a category plus two small counts), so the
    table stays tiny while the memo maps thousands of instructions onto
    it.  It only grows, copying on append, and readers fetch ``rows``
    after taking their indices, so a row appended by another thread is
    never missing from the array a reader indexes.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._index: dict[tuple[int, ...], int] = {}
        self.rows = np.zeros((0, _CODE_COLUMNS), dtype=np.float64)

    def intern(self, row: tuple[int, ...]) -> int:
        with self._lock:
            index = self._index.get(row)
            if index is None:
                index = self._index[row] = len(self._index)
                self.rows = np.vstack([self.rows, np.array([row], dtype=np.float64)])
            return index


_ROWS = _RowTable()


@lru_cache(maxsize=_ROW_CACHE_SIZE)  # thread-safe: clients admit concurrently
def _row_id(mnemonic: str, operands: tuple[str, ...]) -> int:
    """Index in ``_ROWS`` of Table I columns 0-8 for one instruction.

    Keyed by the instruction's value, the (mnemonic, operands) pair the
    frozen :class:`Instruction` compares on.  Passing the fields rather
    than the instruction keeps hashing and equality in C instead of the
    dataclass's Python-level ``__hash__``/``__eq__``.
    """
    instruction = Instruction(mnemonic, operands)
    row = [0] * _CODE_COLUMNS
    row[0] = instruction.numeric_constant_count
    row[1] = instruction.string_constant_count
    column = _CATEGORY_COLUMN.get(instruction.category)
    if column is not None:
        row[column] = 1
    return _ROWS.intern(tuple(row))


def _code_rows(instructions: Iterable[Instruction]) -> np.ndarray:
    """``[len(instructions), 9]`` float64 code-sequence counts."""
    ids = [_row_id(i.mnemonic, i.operands) for i in instructions]
    return _ROWS.rows[np.array(ids, dtype=np.intp)]


def _table_one(code: np.ndarray, lengths, out_degrees) -> np.ndarray:
    """Table I rows: code-sequence sums, then the three count columns."""
    return np.column_stack([code, lengths, out_degrees, lengths])


def block_features(block: BasicBlock, out_degree: int) -> np.ndarray:
    """The 12-dimensional feature vector for one basic block."""
    code = _code_rows(block.instructions).sum(axis=0, keepdims=True)
    return _table_one(code, [len(block.instructions)], [out_degree])[0]


def cfg_feature_matrix(cfg: CFG) -> np.ndarray:
    """Stack block features into the paper's ``X ∈ R^{N×d}`` matrix."""
    if cfg.node_count == 0:
        return np.zeros((0, NUM_FEATURES), dtype=np.float64)
    # "# Offspring (The degree)": number of distinct successor blocks,
    # matching the nonzero entries of the adjacency row.
    out_degrees = np.zeros(cfg.node_count, dtype=int)
    successor_sets: dict[int, set[int]] = {}
    for source, target, _ in cfg.edges:
        successor_sets.setdefault(source, set()).add(target)
    for source, targets in successor_sets.items():
        out_degrees[source] = len(targets)

    blocks = cfg.blocks
    lengths = np.array([len(block.instructions) for block in blocks], dtype=np.int64)
    rows = _code_rows(
        instruction for block in blocks for instruction in block.instructions
    )
    # One segment sum: a non-empty block's segment of ``rows`` runs from
    # its first instruction to the next non-empty block's; empty blocks
    # keep zeros.
    code = np.zeros((len(blocks), _CODE_COLUMNS), dtype=np.float64)
    nonempty = lengths > 0
    if nonempty.any():
        starts = (np.cumsum(lengths) - lengths)[nonempty]
        code[nonempty] = np.add.reduceat(rows, starts, axis=0)
    return _table_one(code, lengths, out_degrees[[block.index for block in blocks]])
