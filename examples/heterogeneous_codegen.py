#!/usr/bin/env python3
"""Heterogeneous code generation: one UML model, every back-end (Fig. 1).

The paper's headline claim: "this approach allows designers to employ UML
to model the whole system and reuse this model to generate code using
different strategies and targeting different platforms."  This example
takes the crane UML model and fans it out to

- the Simulink back-end (CAAM ``.mdl`` + intermediate E-core XML),
- the multithreaded Java back-end,
- the KPN back-end (network + GraphViz topology),
- the static-schedule C/Java generator (via the synthesized CAAM, with
  its traceability manifest),

writing every artifact into an output directory.

Run:  python examples/heterogeneous_codegen.py [output_dir]
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.apps import crane
from repro.backends import DesignFlow, JavaBackend, KpnBackend, SimulinkBackend
from repro.codegen import generate


def main() -> None:
    output_dir = (
        sys.argv[1]
        if len(sys.argv) > 1
        else os.path.join(tempfile.gettempdir(), "repro_codegen")
    )
    os.makedirs(output_dir, exist_ok=True)

    model = crane.build_model()
    simulink = SimulinkBackend(behaviors=crane.behaviors())
    flow = DesignFlow([simulink, JavaBackend(), KpnBackend()])

    print(f"generating from UML model {model.name!r} into {output_dir}/")
    artifacts = flow.generate_all(model)
    # Add the static-schedule C and Java generated from the CAAM.
    result = simulink.last_result
    assert result is not None
    artifacts["codegen"] = generate(
        result.caam,
        languages=("c", "java"),
        uml_trace=result.mapping.context.trace,
    ).files

    total = 0
    for backend, files in artifacts.items():
        backend_dir = os.path.join(output_dir, backend)
        os.makedirs(backend_dir, exist_ok=True)
        for filename, content in files.items():
            path = os.path.join(backend_dir, filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            print(f"  [{backend:>9}] {filename:<24} {len(content):>6} bytes")
            total += 1
    print(f"\n{total} artifacts from one UML model, four strategies.")

    kpn_net = flow.backends[2].last_network  # type: ignore[attr-defined]
    print("\nKPN liveness check: run 3 rounds with unit stimulus")
    outputs = kpn_net.run(
        3,
        inputs={
            channel.name: [1.0, 1.0, 1.0]
            for channel in kpn_net.network_inputs()
        },
    )
    for name, tokens in outputs.items():
        print(f"  {name}: {tokens}")


if __name__ == "__main__":
    main()
