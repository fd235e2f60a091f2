"""Def-use analysis over :class:`~repro.gpu.warp_sim.WarpProgram`.

The warp IR is a straight-line instruction list (no branches — control
flow is predication), so dataflow is a single forward walk: every read
resolves to the latest prior write of the same name in the same
namespace.  Registers and predicates are distinct namespaces (``SETP``
writes predicates; everything else writes data registers), mirroring the
SASS register file / predicate file split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..gpu.warp_sim import Instr, WarpProgram

__all__ = ["Read", "Write", "instr_accesses", "DefUse"]

DATA = "data"
PRED = "pred"

#: Opcodes whose dest lands in the data-register namespace.
_DATA_WRITERS = {"MOV", "S_REG", "ADD", "SUB", "SHL", "SHR", "AND", "OR",
                 "POPC", "SEL", "LDS"}


@dataclass(frozen=True)
class Read:
    """One register/predicate read by one instruction."""

    name: str
    kind: str  # DATA or PRED
    #: Index of the reaching definition, or ``None`` if unwritten.
    def_index: Optional[int]


@dataclass(frozen=True)
class Write:
    """The (single) register/predicate written by one instruction."""

    name: str
    kind: str


def instr_accesses(instr: Instr) -> Tuple[List[Tuple[str, str]], Optional[Write]]:
    """``(reads, write)`` of one instruction, namespace-tagged.

    Reads are ``(name, kind)`` pairs in operand order; immediates are
    skipped.  The guard predicate (``instr.pred``) is always a PRED read.
    """
    reads: List[Tuple[str, str]] = []
    op = instr.opcode
    if op == "SEL":
        # srcs = (predicate, a, b)
        reads.append((str(instr.srcs[0]), PRED))
        for s in instr.srcs[1:]:
            if isinstance(s, str):
                reads.append((s, DATA))
    elif op != "NOP":
        for s in instr.srcs:
            if isinstance(s, str):
                reads.append((s, DATA))
    if instr.pred is not None:
        reads.append((instr.pred, PRED))

    write: Optional[Write] = None
    if instr.dest is not None:
        if op == "SETP":
            write = Write(instr.dest, PRED)
        elif op in _DATA_WRITERS:
            write = Write(instr.dest, DATA)
    return reads, write


class DefUse:
    """Def-use chains of one straight-line warp program."""

    def __init__(self, program: WarpProgram):
        self.program = program
        self.reads: List[List[Read]] = []
        self.writes: List[Optional[Write]] = []
        #: def site -> indices of instructions reading that def.
        self.uses_of: Dict[int, List[int]] = {}
        #: names seen per namespace (for collision checks).
        self.names: Dict[str, Set[str]] = {DATA: set(), PRED: set()}

        last_def: Dict[Tuple[str, str], int] = {}
        for i, instr in enumerate(program.instructions):
            raw_reads, write = instr_accesses(instr)
            resolved = []
            for name, kind in raw_reads:
                d = last_def.get((name, kind))
                resolved.append(Read(name, kind, d))
                if d is not None:
                    self.uses_of.setdefault(d, []).append(i)
            self.reads.append(resolved)
            self.writes.append(write)
            if write is not None:
                last_def[(write.name, write.kind)] = i
                self.names[write.kind].add(write.name)

    # ---- queries -----------------------------------------------------------------

    def dead_writes(self) -> List[int]:
        """Defs overwritten before any read (classic dead stores).

        A def that is never read *and* never overwritten is treated as a
        program output (the IR has no explicit output declaration), so it
        is not flagged.
        """
        next_def: Dict[Tuple[str, str], int] = {}
        dead: List[int] = []
        for i in range(len(self.writes) - 1, -1, -1):
            w = self.writes[i]
            if w is None:
                continue
            key = (w.name, w.kind)
            overwritten_at = next_def.get(key)
            if overwritten_at is not None and i not in self.uses_of:
                dead.append(i)
            next_def[key] = i
        return sorted(dead)

    def namespace_collisions(self) -> Set[str]:
        """Names used as both a data register and a predicate."""
        return self.names[DATA] & self.names[PRED]

    def masked_popcount_subjects(self) -> List[Tuple[int, Optional[int]]]:
        """Subject bitmap of every ``POPC`` (paper Algorithm 2 idiom).

        A MaskedPopCount reads ``AND(bitmap, mask)``; the *subject* is the
        def site of the AND operand that is itself a root (``MOV``
        immediate) — i.e. the bitmap register, not the computed mask.
        Returns ``(popc_index, subject_def_index or None)`` per POPC; two
        POPCs sharing a subject recompute the same masked popcount.
        """
        out: List[Tuple[int, Optional[int]]] = []
        for i, instr in enumerate(self.program.instructions):
            if instr.opcode != "POPC":
                continue
            src_def = next(
                (r.def_index for r in self.reads[i] if r.kind == DATA), None
            )
            subject: Optional[int] = None
            if src_def is not None:
                d = self.program.instructions[src_def]
                candidates = [src_def] if d.opcode == "MOV" else []
                if d.opcode == "AND":
                    candidates = [
                        r.def_index for r in self.reads[src_def]
                        if r.kind == DATA and r.def_index is not None
                    ]
                for c in candidates:
                    ci = self.program.instructions[c]
                    if ci.opcode == "MOV" and not isinstance(ci.srcs[0], str):
                        subject = c
                        break
            out.append((i, subject))
        return out
