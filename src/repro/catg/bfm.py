"""Initiator BFM — the CATG "harness" that generates bus traffic.

Each eVC in Fig. 2 "is endowed with BFMs that generate random scenarios".
The BFM owns the initiator side of one STBus port: it serializes a list of
:class:`~repro.stbus.packet.Transaction` objects into request cells
(respecting the req/gnt handshake), inserts the inter-packet gaps its
sequence prescribes, and always accepts response cells.

Determinism: the BFM's behaviour is a pure function of its transaction
list, gap list and the DUT's grant timing — the same seeded sequence run
against the RTL and BCA views produces identical stimulus, which is what
makes the paper's cycle-alignment comparison meaningful.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..kernel import Module, Simulator
from ..stbus import (
    Cell,
    ProtocolType,
    StbusPort,
    Transaction,
    build_request_cells,
)


class InitiatorBfm(Module):
    """Drives the initiator side of ``port`` with a transaction program.

    Parameters
    ----------
    program:
        ``(transaction, gap)`` pairs; ``gap`` is the number of idle cycles
        inserted *before* the transaction's first cell is presented.
    protocol:
        Governs packet geometry (Type II symmetric / Type III asymmetric).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        port: StbusPort,
        protocol: ProtocolType,
        program: Sequence[Tuple[Transaction, int]] = (),
        parent: Optional[Module] = None,
    ):
        super().__init__(sim, name, parent)
        self.port = port
        self.protocol = protocol
        self._program: List[Tuple[Transaction, int]] = list(program)
        self._next_txn = 0
        self._cells: List[Cell] = []
        self._cell_idx = 0
        self._gap_left = 0
        self._gap_primed = False
        self._tid_counter = 0
        self.sent: List[Transaction] = []
        self.response_packets: List[List] = []
        self._resp_assembly: List = []
        self.clocked(
            self._clk,
            reads=[port.req, port.gnt, port.r_gnt] + port.response_signals(),
            writes=port.request_signals() + [port.r_gnt],
            # src/r_gnt get the same constant on every activation (the
            # final unconditional drives in _clk); declaring the tie-off
            # lets the static analysis treat them as proven constants.
            tie_offs={port.src: 0, port.r_gnt: 1},
        )

    def load_program(self, program: Sequence[Tuple[Transaction, int]]) -> None:
        """Replace the program (before the simulation starts)."""
        self._program = list(program)

    @property
    def done(self) -> bool:
        """All transactions fully injected (responses may still be in flight)."""
        return self._next_txn >= len(self._program) and not self._cells

    # ------------------------------------------------------------------

    def _begin_next(self) -> None:
        if self._next_txn >= len(self._program):
            return
        txn, gap = self._program[self._next_txn]
        if not self._gap_primed:
            self._gap_left = gap
            self._gap_primed = True
        if self._gap_left > 0:
            self._gap_left -= 1
            return
        self._next_txn += 1
        self._gap_primed = False
        txn.tid = self._tid_counter & 0xFF
        self._tid_counter += 1
        self._cells = build_request_cells(txn, self.port.bus_bytes, self.protocol)
        self._cell_idx = 0
        self.sent.append(txn)

    def _clk(self) -> None:
        port = self.port
        # Record response cells (the scoreboard uses monitors; keeping a
        # local copy makes the BFM usable standalone in unit tests).
        if port.response_fired:
            cell = port.response_cell()
            self._resp_assembly.append(cell)
            if cell.r_eop:
                self.response_packets.append(self._resp_assembly)
                self._resp_assembly = []
        # Consume the grant observed during the previous cycle.
        if self._cells and port.request_fired:
            if self._cells[self._cell_idx].eop:
                self._cells = []
                self._cell_idx = 0
            else:
                self._cell_idx += 1
        if not self._cells:
            self._begin_next()
        # Drive the current cell (registered outputs).
        if self._cells:
            port.drive_request(self._cells[self._cell_idx])
        else:
            port.clear_request()
        port.src.drive(0)  # src is meaningful only on the node's target side
        port.r_gnt.drive(1)  # the BFM always absorbs response cells
