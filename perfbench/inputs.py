"""Seeded inputs: the model corpus, stimuli, and designer edits.

Everything is a pure function of the benchmark seed.  The program only
ever receives the generated artifacts (XMI text, job specs, stimuli).

Cost per model is dominated by its thread count (model size, and the Bell
number of candidate partitions the exhaustive DSE walks), so the zoo
corpus is *stratified*: it walks :func:`repro.zoo.generate_corpus`'s
round-robin index sequence for the seed and keeps the first
``per_stratum`` scenarios of every (family, thread count) stratum the
generator can draw.  The seed still picks every model; the mix of model
sizes is fixed, so a run's totals compare across seeds.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.apps import crane, didactic, mjpeg, synthetic
from repro.uml.xmi import to_xmi_string
from repro.zoo import (
    FAMILIES,
    ScenarioParams,
    build_scenario,
    draw_params,
    scenario_families,
    stimuli_for,
)

#: Thread counts each zoo family can draw (repro.zoo.generator drawers).
STRATA: Dict[str, Tuple[int, ...]] = {
    "pipeline": tuple(range(3, 8)),
    "fanout": tuple(range(4, 7)),
    "layered": tuple(range(4, 12)),
    "cyclic": (2,),
    "fsm": (2,),
    "hybrid": tuple(range(3, 8)),
}

#: Index budget for filling the strata (the rarest, layered/11, is ~8%
#: of layered draws, so a few hundred indices always suffice).
MAX_INDEX = 20000

CASE_STUDIES = {
    "crane": crane,
    "didactic": didactic,
    "mjpeg": mjpeg,
    "synthetic": synthetic,
}

#: Case studies inside the static-schedule code generator's domain.  The
#: others attach Python callbacks without declarative specs, which the
#: backend rejects by design (docs/codegen.md), so codegen skips them.
CODEGEN_CASE_STUDIES = ("crane",)

#: Large scaled pipelines in synth-cold: one per stratum of 39, 46, ... 74
#: threads (roughly 300-650 blocks).
LARGE_STRATA = tuple(range(36, 78, 7))


@dataclass
class Item:
    """One model as the benchmark submits it."""

    name: str
    xmi: str
    auto_allocate: bool
    model: object
    behaviors: Optional[Dict[str, Callable]]
    params: Optional[ScenarioParams]


def _zoo_item(params: ScenarioParams) -> Item:
    scenario = build_scenario(params)
    return Item(
        name=params.name,
        xmi=to_xmi_string(scenario.model),
        auto_allocate=params.auto_allocate,
        model=scenario.model,
        behaviors=scenario.behaviors,
        params=params,
    )


def zoo_corpus(seed: int, per_stratum: int) -> List[Item]:
    """The stratified zoo corpus, in generation order."""
    quota = {
        (family, threads): per_stratum
        for family, counts in STRATA.items()
        for threads in counts
    }
    wanted = sum(quota.values())
    chosen: List[ScenarioParams] = []
    families = scenario_families(MAX_INDEX, FAMILIES)
    for index, family in enumerate(families):
        params = draw_params(seed, index, family)
        key = (family, len(params.threads))
        if quota.get(key, 0) > 0:
            quota[key] -= 1
            chosen.append(params)
            if len(chosen) == wanted:
                return [_zoo_item(p) for p in chosen]
    missing = sorted(k for k, v in quota.items() if v > 0)
    raise RuntimeError(f"zoo strata not filled for seed {seed}: {missing}")


def case_studies(names: Sequence[str] = tuple(CASE_STUDIES)) -> List[Item]:
    items = []
    for name in names:
        module = CASE_STUDIES[name]
        model = module.build_model()
        items.append(
            Item(
                name=name,
                xmi=to_xmi_string(model),
                auto_allocate=False,
                model=model,
                behaviors=module.behaviors(),
                params=None,
            )
        )
    return items


def large_pipelines(seed: int) -> List[Item]:
    """Scaled pipelines built from zoo parameters (tens of threads)."""
    items = []
    for k, low in enumerate(LARGE_STRATA):
        rng = random.Random(f"perfbench/large/{seed}/{k}")
        # Size and CPU count are fixed per stratum; the seed draws the rest.
        count = low + 3
        threads = tuple(f"T{i + 1}" for i in range(count))
        compute = tuple(
            (
                thread,
                f"f{i}_{thread.lower()}",
                rng.choice(["sfun", "class", "gain"]),
                rng.choice([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0]),
                float(rng.randint(-8, 8)),
            )
            for i, thread in enumerate(threads)
        )
        edges = tuple(
            (threads[i], threads[i + 1], f"d{i + 1}", 1, rng.random() < 0.5)
            for i in range(count - 1)
        )
        n_cpus = 2 + k % 3
        buckets: List[List[str]] = [[] for _ in range(n_cpus)]
        for position, thread in enumerate(threads):
            buckets[position % n_cpus].append(thread)
        params = ScenarioParams(
            name=f"large_pipeline_{seed}_{k}",
            family="pipeline",
            seed=seed,
            index=10_000 + k,
            threads=threads,
            cpus=tuple(
                (f"CPU{i + 1}", tuple(bucket))
                for i, bucket in enumerate(buckets)
            ),
            edges=edges,
            io_reads=((threads[0], "src"),),
            io_writes=((threads[-1], "sink"),),
            compute=compute,
            steps=rng.randint(8, 24),
        )
        items.append(_zoo_item(params))
    return items


# -- stimuli ------------------------------------------------------------------


def root_inports(caam) -> List[str]:
    """Root Inport block names, in stimulus (Port-parameter) order."""
    inports = sorted(
        (b for b in caam.root.blocks if b.block_type == "Inport"),
        key=lambda b: int(b.parameters.get("Port", 0)),
    )
    return [b.name for b in inports]


def base_stimuli(item: Item, inports: Sequence[str]) -> List[Dict[str, List[float]]]:
    """Zoo stimuli from :func:`repro.zoo.stimuli_for`; case studies get
    the same shape (halves in [-8, 8]) from a seeded stream."""
    if item.params is not None:
        return stimuli_for(item.params, inports)
    rng = random.Random(f"perfbench/stimuli/{item.name}")
    return [
        {name: [rng.randint(-16, 16) / 2.0 for _ in range(16)] for name in inports}
    ]


def lengthen(samples: Sequence[float], length: int, shift: int = 0) -> List[float]:
    """Tile ``samples`` to ``length`` values, rotated by ``shift``."""
    if not samples:
        return [0.0] * length
    return [samples[(i + shift) % len(samples)] for i in range(length)]


def long_episode(base, length: int) -> Dict[str, List[float]]:
    return {name: lengthen(s, length) for name, s in base[0].items()}


def episode_batch(base, episodes: int, length: int) -> List[Dict[str, List[float]]]:
    """``episodes`` distinct episodes: base episodes cycled and rotated."""
    return [
        {
            name: lengthen(samples, length, shift=k)
            for name, samples in base[k % len(base)].items()
        }
        for k in range(episodes)
    ]


# -- designer edits -----------------------------------------------------------

_LITERAL = re.compile(r'<argument kind="literal" value="(-?\d+(?:\.\d+)?)"')
_BEHAVIOR = re.compile(r"<ownedBehavior[^>]*>([^<]*)</ownedBehavior>")
_NUMBER = re.compile(r"(?<![\w.])\d+\.\d+(?![\w.])")
_MODEL_NAME = re.compile(r'(<uml:Model [^>]*name=")([^"]+)(")')


def edit_targets(xmi: str) -> List[Tuple[int, int]]:
    """Spans of the numbers a designer edit may change: literal call
    arguments and decimal constants in operation bodies."""
    spans = [m.span(1) for m in _LITERAL.finditer(xmi)]
    for body in _BEHAVIOR.finditer(xmi):
        offset = body.start(1)
        spans.extend(
            (offset + m.start(), offset + m.end())
            for m in _NUMBER.finditer(body.group(1))
        )
    return sorted(spans)


def edit_xmi(xmi: str, rng: random.Random) -> str:
    """Change one element: bump one constant by 0.5 (or, in a model with
    no constants, rename the model)."""
    spans = edit_targets(xmi)
    if not spans:
        match = _MODEL_NAME.search(xmi)
        return xmi[: match.end(2)] + "_v" + xmi[match.end(2):]
    start, end = spans[rng.randrange(len(spans))]
    return xmi[:start] + repr(float(xmi[start:end]) + 0.5) + xmi[end:]


def edit_sequence(
    items: Sequence[Item], seed: int, edit_rate: float
) -> Iterator[Tuple[str, str]]:
    """The edit loop's submissions: ``(key, xmi)`` forever.

    Cycles over ``items``; before a seeded ``edit_rate`` share of the
    submissions the model is edited, which replaces its current version.
    ``key`` names the model version (``name@version``).
    """
    rng = random.Random(f"perfbench/edit-loop/{seed}")
    current = [item.xmi for item in items]
    versions = [0] * len(items)
    position = 0
    while True:
        slot = position % len(items)
        position += 1
        if rng.random() < edit_rate:
            current[slot] = edit_xmi(current[slot], rng)
            versions[slot] += 1
        yield f"{items[slot].name}@{versions[slot]}", current[slot]
