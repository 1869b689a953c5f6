"""Synthetic multi-target scenario generation.

Targets get pairwise-disjoint characteristic focal sets over the frame, so
reports about different targets conflict and reports about the same target do
not. Report positions follow a bounded random walk that respects the speed
limit (with no limit, each position is a fresh uniform draw over the box);
times are sorted uniform draws over the span. Everything is driven by
one seeded RNG, so a fixed config yields byte-identical output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .ds import ValidationError


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    targets: int = 3
    reports_per_target: int = 4
    frame_size: int = 6
    contradiction: float = 0.3
    area_km: float = 50.0
    v_max_kmh: float = 25.0
    time_span_s: float = 7200.0
    r_max: int | None = None  # prior support; defaults to targets + 1

    def __post_init__(self):
        if self.targets < 1 or self.reports_per_target < 1 or self.frame_size < 1:
            raise ValidationError("counts must be >= 1")
        if not 0.0 <= self.contradiction <= 1.0:
            raise ValidationError("contradiction level must lie in [0, 1]")
        if self.frame_size < self.targets:
            raise ValidationError(
                f"frame of {self.frame_size} elements cannot give {self.targets} "
                "targets disjoint focal sets"
            )
        if not (self.area_km > 0 and self.v_max_kmh > 0 and self.time_span_s > 0):  # also refuses nan
            raise ValidationError("kinematic parameters must be positive")
        if math.isinf(self.area_km) or math.isinf(self.time_span_s):  # would write infinite times or positions
            raise ValidationError("area and time span must be finite")
        if self.r_max is not None and self.r_max < 1:
            raise ValidationError("r_max must be >= 1")


def target_focals(cfg: ScenarioConfig) -> list[list[str]]:
    """Round-robin split of the frame into one disjoint focal set per target."""
    elements = [f"h{i + 1}" for i in range(cfg.frame_size)]
    focals: list[list[str]] = [[] for _ in range(cfg.targets)]
    for i, e in enumerate(elements):
        focals[i % cfg.targets].append(e)
    return focals


def generate_scenario_doc(cfg: ScenarioConfig) -> dict:
    """The scenario as a JSON-ready document (frame, prior, reports).

    Each target starts uniformly in the area box and walks from report to
    report with a uniform heading and a speed uniform up to ``v_max_kmh``,
    clamped to the box. With an infinite ``v_max_kmh`` a target can be
    anywhere by its next report, so each later position is drawn uniformly
    in the box instead; an infinite step would be clamped onto a corner.
    """
    rng = random.Random(cfg.seed)
    focals = target_focals(cfg)
    elements = [f"h{i + 1}" for i in range(cfg.frame_size)]

    reports = []
    for t in range(cfg.targets):
        times = sorted(rng.uniform(0.0, cfg.time_span_s) for _ in range(cfg.reports_per_target))
        x = rng.uniform(0.0, cfg.area_km)
        y = rng.uniform(0.0, cfg.area_km)
        prev_t = times[0]
        for k, t_s in enumerate(times):
            if math.isinf(cfg.v_max_kmh) and k > 0:
                x = rng.uniform(0.0, cfg.area_km)
                y = rng.uniform(0.0, cfg.area_km)
            elif k > 0:
                dt_h = (t_s - prev_t) / 3600.0
                heading = rng.uniform(0.0, 2.0 * math.pi)
                step = rng.uniform(0.0, cfg.v_max_kmh) * dt_h
                x = min(cfg.area_km, max(0.0, x + step * math.cos(heading)))
                y = min(cfg.area_km, max(0.0, y + step * math.sin(heading)))
            prev_t = t_s
            theta = cfg.contradiction * rng.random()
            masses = [{"set": list(focals[t]), "mass": 1.0 - theta}]
            if theta > 0.0:
                masses.append({"set": list(elements), "mass": theta})
            reports.append({"masses": masses, "time": t_s, "pos": [x, y]})
    rng.shuffle(reports)
    width = len(str(len(reports)))
    for i, r in enumerate(reports):
        r["id"] = f"r{i + 1:0{width}d}"

    r_max = cfg.r_max if cfg.r_max is not None else cfg.targets + 1
    prior = {str(r): 1.0 / r_max for r in range(1, r_max + 1)}
    return {"frame": elements, "prior": prior, "reports": reports}


def generate_scenario(cfg: ScenarioConfig) -> str:
    """Corpus file content; deterministic for a fixed config."""
    return json.dumps(generate_scenario_doc(cfg), indent=2, sort_keys=True) + "\n"
