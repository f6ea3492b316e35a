"""Simulink back-end: UML → CAAM → ``.mdl`` (the dataflow leg of Fig. 1).

A thin façade over :func:`repro.core.flow.synthesize` presenting the same
interface as the other back-ends (:func:`generate` returning file-name →
content), so :class:`repro.backends.DesignFlow` can fan one UML model out
to every code-generation strategy.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.flow import SynthesisResult, synthesize
from ..uml.deployment import DeploymentPlan
from ..uml.model import Model


class SimulinkBackend:
    """Generates the Simulink CAAM artifacts for a UML model."""

    name = "simulink"

    def __init__(
        self,
        *,
        auto_allocate: bool = False,
        behaviors: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.auto_allocate = auto_allocate
        self.behaviors = behaviors or {}
        self.last_result: Optional[SynthesisResult] = None

    def generate(
        self, model: Model, plan: Optional[DeploymentPlan] = None
    ) -> Dict[str, str]:
        """Return ``{filename: content}`` artifacts.

        Produces the final ``.mdl`` plus the intermediate E-core XML of
        step 2/3 (useful for tool debugging, mirroring the paper's
        persisted intermediate).
        """
        result = synthesize(
            model,
            plan,
            auto_allocate=self.auto_allocate,
            behaviors=self.behaviors,
        )
        self.last_result = result
        # Take the memoized .mdl before reading the graph ends the memo.
        mdl_text = result.mdl_text
        return {
            f"{result.caam.name}.mdl": mdl_text,
            f"{result.caam.name}.caam.xml": result.intermediate_xml,
        }
