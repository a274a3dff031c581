"""The per-configuration symbolic analysis report and its orchestrator.

:func:`run_symbolic_analysis` runs the functional equivalence engines
for one configuration.  The resulting :class:`SymbolicReport` hangs off
:class:`repro.analysis.runner.ConfigAnalysisReport` under a ``symbolic``
key that only exists when ``--symbolic`` ran — non-symbolic output stays
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ...lint.diagnostics import Finding
from ...stbus import NodeConfig
from .equiv import (
    DEFAULT_DOMAIN_BUDGET,
    MISMATCH,
    PortEquivalence,
    check_functional_equivalence,
)

__all__ = ["SymbolicReport", "run_symbolic_analysis"]


@dataclass
class SymbolicReport:
    """Symbolic results for one configuration."""

    config_name: str
    budget: int = DEFAULT_DOMAIN_BUDGET
    bca_bugs: List[str] = field(default_factory=list)
    ports: List[PortEquivalence] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    @property
    def equivalence_clean(self) -> bool:
        return all(p.verdict != MISMATCH for p in self.ports)

    @property
    def mismatched_ports(self) -> List[str]:
        return [p.port for p in self.ports if p.verdict == MISMATCH]

    def render(self) -> str:
        lines = [f"{self.config_name}: symbolic analysis"]
        for port in self.ports:
            lines.append(f"  {port.render()}")
        for finding in self.findings:
            lines.append(f"  {finding.render()}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "config": self.config_name,
            "budget": self.budget,
            "equivalence_clean": self.equivalence_clean,
            "ports": [p.to_dict() for p in self.ports],
            "findings": [f.to_dict() for f in self.findings],
        }
        if self.bca_bugs:
            out["bca_bugs"] = list(self.bca_bugs)
        return out


def run_symbolic_analysis(
    config: NodeConfig,
    *,
    budget: int = DEFAULT_DOMAIN_BUDGET,
    bca_bugs: Iterable[str] = (),
) -> SymbolicReport:
    """Run the full symbolic pass for one configuration.

    ``bca_bugs`` — injected BCA defects for the dual harness; used by
    the bug-registry detection check (an empty tuple analyzes the
    shipped models).
    """
    ports, findings = check_functional_equivalence(
        config, budget=budget, bca_bugs=bca_bugs,
    )
    return SymbolicReport(
        config_name=config.name,
        budget=budget,
        bca_bugs=sorted(bca_bugs),
        ports=ports,
        findings=findings,
    )
