"""Bit-identity of generated C/Java against the slot simulator (needs a toolchain)."""

import math
import shutil
import subprocess
import tempfile

import pytest

from repro.codegen import (
    build_schedule,
    cc_available,
    differential_check,
)
from repro.codegen.cemit import generate_c
from repro.codegen.differential import (
    DifferentialError,
    _same,
    _stimulus_lines,
    compile_c,
    run_binary,
)
from repro.simulink.simulator import Simulator

pytestmark = pytest.mark.codegen

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None
    and shutil.which("gcc") is None
    and shutil.which("clang") is None,
    reason="no C compiler on PATH",
)
#: Non-finite crane stimuli: NaN reaches the Saturation limiter, ±inf
#: drives the controller into overflow, -0.0 probes signed-zero ties.
NON_FINITE = [
    {"In1": [math.nan, 0.5, math.inf, -0.0] * 25},
    {"In2": [math.inf, -math.inf] * 50, "In3": [math.nan] * 100},
    {"In1": [-math.inf] * 100, "In3": [-0.0, math.inf] * 50},
]

needs_javac = pytest.mark.skipif(
    shutil.which("javac") is None or shutil.which("java") is None,
    reason="no JDK on PATH",
)


class TestCompilerDiscovery:
    def test_cc_available_matches_path(self):
        expected = any(shutil.which(name) for name in ("cc", "gcc", "clang"))
        assert bool(cc_available()) == expected


@needs_cc
class TestCraneDifferential:
    def test_crane_c_is_bit_identical(self, crane_result):
        episodes = [
            {},
            {"In1": [0.5] * 100},
            {"In2": [1.0, -1.0] * 50},
        ] + NON_FINITE
        report = differential_check(crane_result.caam, episodes, steps=100)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.samples == len(episodes) * 100

    def test_mismatch_detection_is_real(self, crane_result):
        # Sabotage the generated C and prove the harness notices: the
        # differential check must not be vacuously green.
        schedule = build_schedule(crane_result.caam)
        artifacts = dict(generate_c(schedule))
        assert "outputs[0] =" in artifacts["crane.c"]
        artifacts["crane.c"] = artifacts["crane.c"].replace(
            "outputs[0] =", "outputs[0] = 1.0 +", 1
        )
        episodes = [{}]
        with tempfile.TemporaryDirectory() as workdir:
            binary = compile_c(artifacts, workdir)
            got = run_binary(binary, schedule, episodes, steps=5)
        want = Simulator(crane_result.caam, engine="slots").run(5)
        (name,) = [block.name for block in schedule.outports]
        assert got[0][name] != want.outputs[name]

    def test_compile_failure_raises(self, crane_result):
        schedule = build_schedule(crane_result.caam)
        artifacts = dict(generate_c(schedule))
        artifacts["crane.c"] += "\nthis is not C\n"
        with tempfile.TemporaryDirectory() as workdir:
            with pytest.raises(DifferentialError, match="compilation failed"):
                compile_c(artifacts, workdir)


@needs_javac
class TestCraneJavaDifferential:
    def test_crane_java_is_bit_identical(self, crane_result, tmp_path):
        from repro.codegen.javaemit import generate_java

        schedule = build_schedule(crane_result.caam)
        ((name, source),) = generate_java(schedule).items()
        (tmp_path / name).write_text(source)
        subprocess.run(
            ["javac", name], cwd=tmp_path, check=True, capture_output=True
        )
        episodes = [{}, {"In1": [0.25] * 50}] + NON_FINITE
        steps = 50
        # Java's parseDouble spells the non-finite values out.
        java_tokens = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
        stdin = "\n".join(
            " ".join(java_tokens.get(token, token) for token in line.split())
            for line in _stimulus_lines(schedule, episodes, steps).split("\n")
        )
        proc = subprocess.run(
            ["java", name[: -len(".java")]],
            cwd=tmp_path,
            input=stdin,
            capture_output=True,
            text=True,
            check=True,
        )
        out_names = [block.name for block in schedule.outports]
        lines = proc.stdout.split("\n")
        reference = Simulator(crane_result.caam, engine="slots").run_many(
            steps, episodes
        )
        cursor = 0
        for episode in reference:
            for step in range(steps):
                tokens = lines[cursor].split()
                cursor += 1
                for port, token in zip(out_names, tokens):
                    assert _same(
                        float.fromhex(token), episode.outputs[port][step]
                    ), (port, step, token)
