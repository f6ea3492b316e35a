"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload synth-cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Earlier lines
give the run's context (seed, source digest, host) and, for traced runs,
the per-layer table.  Each workload runs in its own process, so
``setup_s`` and ``peak_rss_mb`` belong to it alone.

``--write-digests`` recomputes ``perfbench/digests.json``, the committed
digests of the pinned seed's outputs that every run compares against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
#: The seed whose outputs are pinned in digests.json.
PINNED_SEED = 1
WORKLOADS = ("synth-cold", "edit-loop", "backends", "server-mix")


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout has no git)."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode() + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def context(args) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def workload_module(name: str):
    """``(run, pinned_digests)`` of a workload, imported on demand so a
    run's memory holds only its own workload's modules."""
    if name in ("synth-cold", "edit-loop"):
        import synth

        if name == "synth-cold":
            return synth.run_cold, synth.pinned_cold
        return synth.run_edit, synth.pinned_edit
    if name == "backends":
        import backends

        return backends.run, backends.pinned_digests
    import servermix

    return servermix.run, servermix.pinned_digests


def write_digests() -> None:
    """Recompute every workload's pinned-seed digests into digests.json."""
    out = {"seed": PINNED_SEED}
    for name in WORKLOADS:
        out[name] = workload_module(name)[1](PINNED_SEED)
    DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


def check_pinned(name: str, committed: dict, outcome) -> None:
    """The pinned seed's outputs must match the committed digests, so a
    change to any output byte fails the benchmark on every seed."""
    got = workload_module(name)[1](PINNED_SEED)
    want = committed.get(name, {})
    for kind in sorted(set(got) | set(want)):
        if got.get(kind) != want.get(kind):
            outcome.problem(
                f"pinned seed {PINNED_SEED}: {name} {kind} outputs differ from "
                f"{DIGESTS.name} (committed {str(want.get(kind))[:12]}, "
                f"now {str(got.get(kind))[:12]})"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny corpora (self-test only)"
    )
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # The program's defaults, not whatever the calling shell exported.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    try:
        committed = json.loads(DIGESTS.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {DIGESTS.name}: {exc}")

    info = context(args)
    run, _ = workload_module(args.workload)
    outcome = run(args.seed, args.seconds, args.trace, smoke=args.smoke)
    if not args.smoke:
        check_pinned(args.workload, committed, outcome)
    info.update(outcome.context)
    info["calibration_slice_s"] = outcome.calibration.median_slice()
    print(json.dumps({"context": info}, sort_keys=True))
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        value, got_unit = outcome.metrics.get(name, (0.0, unit))
        if got_unit != unit:
            fail(f"{name}: workload reports {got_unit!r}, BENCHMARK.json says {unit!r}")
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        print_table(args.workload, metrics)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def print_table(workload: str, metrics: dict) -> None:
    """The layers this workload exercised (zero rows are layers it
    bypasses), then unattributed time and tracing overhead."""
    print(f"per-layer table: {workload} (traced half; *_ms = self time per operation)")
    for name, metric in metrics.items():
        if metric["value"] or name in ("unattributed_ms", "trace.overhead_ms"):
            print(f"  {name:34} {metric['value']:14.4f} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
