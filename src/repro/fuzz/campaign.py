"""Parallel fuzz campaigns, scenario shrinking and repro artifacts.

A campaign shards seeds across worker processes (shared-nothing: each
worker regenerates its scenario from the seed, runs it under an
:class:`~repro.fuzz.invariants.InvariantChecker`, then replays it *without*
the checker and compares recorder digests - catching both nondeterminism
and checker interference in one pass).  Results merge into a
:class:`CampaignReport` whose JSON is a pure function of
``(base_seed, num_seeds)``: no wall-clock, no worker ordering, so a rerun
of the same campaign is byte-identical.

When a scenario violates an invariant, :func:`shrink_scenario` greedily
minimizes it - truncating the duration past the first violation, then
dropping faults, schedule breakpoints, config overrides and whole sites -
while the *same invariant class* keeps firing.  :func:`write_artifact`
pins the minimized spec plus its violations as a replayable JSON repro
(``python -m repro fuzz --replay FILE``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError
from .generate import ScenarioSpec, build_run, generate_scenario
from .invariants import INVARIANTS, InvariantChecker, Violation

#: Schema tags for the JSON artifacts this module reads/writes.
ARTIFACT_SCHEMA = "wasp-fuzz-repro/v1"
REPORT_SCHEMA = "wasp-fuzz-campaign/v1"

#: Simulated seconds kept past the first violation when truncating: one
#: paper-default monitoring round plus slack for the commit that follows.
_TRUNCATE_MARGIN_S = 60.0

#: Cap on candidate evaluations per shrink (each costs two full runs).
_MAX_SHRINK_EVALS = 64

#: Invariant classes with exercise counts.  ``replay-digest`` and
#: ``crash`` are outcomes of a whole scenario, not checks that a scoped
#: condition may skip, so an exercise floor does not apply to them.
COUNTED_INVARIANTS = tuple(
    name for name in INVARIANTS if name not in ("replay-digest", "crash")
)


def recorder_digest(recorder) -> str:
    """SHA-256 over every recorded sample/adaptation/fault.

    ``repr`` of a float is exact, so two digests match iff the runs are
    bit-identical.  ``benchmarks/perf/digest.py`` pins its values.
    """
    h = hashlib.sha256()
    for s in recorder.samples:
        h.update(
            (
                f"{s.t_s!r}|{s.delay_s!r}|{s.processed!r}|{s.offered!r}"
                f"|{s.dropped!r}|{s.parallelism}|{s.extra_slots}\n"
            ).encode()
        )
    for a in recorder.adaptations:
        h.update(f"A|{a.t_s!r}|{a.action}|{a.detail}\n".encode())
    for f in recorder.faults:
        h.update(f"F|{f.t_s!r}|{f.kind}|{f.detail}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# Single scenario
# ---------------------------------------------------------------------- #


@dataclass
class ScenarioResult:
    """Outcome of one fuzzed scenario (checked run + digest replay)."""

    seed: int
    violations: list[Violation]
    digest: str
    ticks: int
    duration_s: float
    #: Times each invariant was evaluated (scoped checks skip silently, so
    #: "zero violations" is only meaningful alongside nonzero exercise).
    checks: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_hit(self) -> list[str]:
        """Distinct violated invariants, first-seen order."""
        seen: list[str] = []
        for v in self.violations:
            if v.invariant not in seen:
                seen.append(v.invariant)
        return seen

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "digest": self.digest,
            "ticks": self.ticks,
            "duration_s": self.duration_s,
            "checks": dict(sorted(self.checks.items())),
            "violations": [v.to_dict() for v in self.violations],
        }


def _execute(spec: ScenarioSpec, checker: InvariantChecker | None) -> str:
    run, dynamics = build_run(spec)
    if checker is not None:
        run.attach_checker(checker)
    run.run(spec.duration_s, dynamics)
    return recorder_digest(run.recorder)


def run_scenario(
    spec: ScenarioSpec, *, verify_digest: bool = True
) -> ScenarioResult:
    """Run one scenario under invariant checking.

    Never raises: an engine/harness exception becomes a ``crash``
    violation so a campaign reports it instead of dying.  With
    ``verify_digest`` the scenario runs a second time *without* the
    checker; differing recorder digests become a ``replay-digest``
    violation (nondeterminism, or a checker that perturbs the run).
    """
    checker = InvariantChecker()
    violations: list[Violation] = []
    digest = ""
    try:
        digest = _execute(spec, checker)
    except Exception as exc:  # noqa: BLE001 - fuzzing oracle
        violations.append(
            Violation("crash", 0.0, f"{type(exc).__name__}: {exc}")
        )
    violations.extend(checker.violations)
    if verify_digest and digest:
        try:
            replay = _execute(spec, None)
        except Exception as exc:  # noqa: BLE001 - fuzzing oracle
            replay = f"crash: {type(exc).__name__}: {exc}"
        if replay != digest:
            violations.append(
                Violation(
                    "replay-digest",
                    0.0,
                    f"checked run digest {digest} != unchecked replay "
                    f"{replay}",
                )
            )
    return ScenarioResult(
        seed=spec.seed,
        violations=violations,
        digest=digest,
        ticks=checker.ticks_checked,
        duration_s=spec.duration_s,
        checks=dict(checker.checks),
    )


# ---------------------------------------------------------------------- #
# Campaign
# ---------------------------------------------------------------------- #


@dataclass
class CampaignReport:
    """Merged outcome of a seed-sharded campaign."""

    base_seed: int
    num_seeds: int
    results: list[ScenarioResult]

    @property
    def failing(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failing

    def totals(self) -> dict[str, int]:
        """Violation count per invariant across all scenarios."""
        out: dict[str, int] = {}
        for result in self.results:
            for v in result.violations:
                out[v.invariant] = out.get(v.invariant, 0) + 1
        return dict(sorted(out.items()))

    def checks(self) -> dict[str, int]:
        """Evaluation count per invariant across all scenarios."""
        out: dict[str, int] = {}
        for result in self.results:
            for invariant, n in result.checks.items():
                out[invariant] = out.get(invariant, 0) + n
        return dict(sorted(out.items()))

    def under_exercised(self, floor: int) -> dict[str, int]:
        """Counted invariant classes evaluated fewer than ``floor`` times
        (with their counts), in :data:`INVARIANTS` order."""
        checks = self.checks()
        return {
            name: checks.get(name, 0)
            for name in COUNTED_INVARIANTS
            if checks.get(name, 0) < floor
        }

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "base_seed": self.base_seed,
            "num_seeds": self.num_seeds,
            "num_failing": len(self.failing),
            "ticks": sum(r.ticks for r in self.results),
            "checks": self.checks(),
            "totals": self.totals(),
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _run_seed(seed: int, backend: str | None = None) -> ScenarioResult:
    """Worker entry point: regenerate the scenario from its seed and run.

    Module-level (picklable) and shared-nothing; even scenario
    *generation* crashes are folded into the result.  ``backend``
    overrides the scenario's engine backend (the override merges into
    ``config_overrides``, so replays and digests see the same config).
    """
    try:
        spec = generate_scenario(seed)
        if backend is not None:
            spec = dataclasses.replace(
                spec,
                config_overrides={
                    **spec.config_overrides,
                    "engine_backend": backend,
                },
            )
    except Exception as exc:  # noqa: BLE001 - fuzzing oracle
        return ScenarioResult(
            seed=seed,
            violations=[
                Violation(
                    "crash", 0.0, f"generate: {type(exc).__name__}: {exc}"
                )
            ],
            digest="",
            ticks=0,
            duration_s=0.0,
        )
    return run_scenario(spec)


def run_campaign(
    num_seeds: int,
    *,
    base_seed: int = 0,
    jobs: int = 1,
    backend: str | None = None,
) -> CampaignReport:
    """Run ``num_seeds`` scenarios (seeds ``base_seed..base_seed+N-1``).

    ``jobs > 1`` fans out over a process pool; the merged report is
    sorted by seed, so it is independent of worker count and scheduling.
    ``backend`` forces every scenario onto one engine backend
    (``"reference"`` or ``"dense"``); ``None`` keeps each scenario's own
    configuration.
    """
    if num_seeds < 1:
        raise ConfigurationError("num_seeds must be >= 1")
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    seeds = [base_seed + i for i in range(num_seeds)]
    worker = functools.partial(_run_seed, backend=backend)
    if jobs == 1 or num_seeds == 1:
        results = [worker(seed) for seed in seeds]
    else:
        with multiprocessing.Pool(min(jobs, num_seeds)) as pool:
            results = pool.map(worker, seeds, chunksize=1)
    results.sort(key=lambda r: r.seed)
    return CampaignReport(
        base_seed=base_seed, num_seeds=num_seeds, results=results
    )


# ---------------------------------------------------------------------- #
# Shrinking
# ---------------------------------------------------------------------- #


def _drop_site(spec: ScenarioSpec, name: str) -> ScenarioSpec:
    sites = tuple(s for s in spec.sites if s.name != name)
    links = tuple(
        link
        for link in spec.links
        if link.src != name and link.dst != name
    )
    faults = tuple(
        f
        for f in spec.faults
        if name
        not in (
            f.params.get("site"),
            f.params.get("src"),
            f.params.get("dst"),
        )
    )
    return dataclasses.replace(spec, sites=sites, links=links, faults=faults)


def _candidates(spec: ScenarioSpec, first_violation_s: float | None):
    """Yield smaller specs, cheapest/highest-yield reductions first."""
    if first_violation_s is not None:
        cut = first_violation_s + _TRUNCATE_MARGIN_S
    else:
        cut = spec.duration_s / 2.0  # no violation time: bisect
    cut = max(cut, 60.0)
    if cut < spec.duration_s - 1e-9:
        yield dataclasses.replace(spec, duration_s=cut)
    for i in range(len(spec.faults)):
        yield dataclasses.replace(
            spec, faults=spec.faults[:i] + spec.faults[i + 1 :]
        )
    for attr in ("workload_schedule", "bandwidth_schedule"):
        schedule = getattr(spec, attr)
        if schedule is None:
            continue
        if schedule.steps:
            for i in range(len(schedule.steps)):
                trimmed = dataclasses.replace(
                    schedule,
                    steps=schedule.steps[:i] + schedule.steps[i + 1 :],
                )
                yield dataclasses.replace(spec, **{attr: trimmed})
        yield dataclasses.replace(spec, **{attr: None})
    for key in sorted(spec.config_overrides):
        overrides = {
            k: v for k, v in spec.config_overrides.items() if k != key
        }
        yield dataclasses.replace(spec, config_overrides=overrides)
    edges = [s for s in spec.sites if s.kind == "edge"]
    dcs = [s for s in spec.sites if s.kind == "dc"]
    for site in spec.sites:
        pool = edges if site.kind == "edge" else dcs
        if len(pool) <= 1:
            continue  # queries need >= 1 edge and >= 1 data center
        yield _drop_site(spec, site.name)


def shrink_scenario(
    spec: ScenarioSpec,
    invariant: str,
    *,
    max_evals: int = _MAX_SHRINK_EVALS,
    mode: str = "violates",
) -> tuple[ScenarioSpec, list[Violation]]:
    """Greedily minimize ``spec`` while ``invariant`` keeps firing.

    ``mode="violates"`` (the default) accepts a reduction iff the reduced
    scenario still *violates* the same invariant class - this minimizes a
    failing repro.  ``mode="exercises"`` accepts iff the reduction stays
    violation-free while still *evaluating* the invariant at least once -
    this minimizes a clean regression fixture that keeps the checker's
    scoped checks alive.  The reduction list restarts after every
    acceptance.  Returns the smallest spec found and its matching
    violations (empty in ``exercises`` mode).  Raises if ``spec`` does
    not qualify to begin with.
    """
    if mode not in ("violates", "exercises"):
        raise ConfigurationError(f"unknown shrink mode {mode!r}")

    def accepts(result: ScenarioResult) -> bool:
        if mode == "violates":
            return any(v.invariant == invariant for v in result.violations)
        return result.ok and result.checks.get(invariant, 0) > 0

    result = run_scenario(spec)
    if not accepts(result):
        raise ConfigurationError(
            f"seed {spec.seed}: invariant {invariant!r} does not "
            f"{'reproduce' if mode == 'violates' else 'get exercised'}"
        )
    current, current_result = spec, result
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        if mode == "violates":
            first_t = min(
                v.t_s
                for v in current_result.violations
                if v.invariant == invariant
            )
        else:
            first_t = None
        for candidate in _candidates(current, first_t):
            evals += 1
            cand_result = run_scenario(candidate)
            if accepts(cand_result):
                current = candidate
                current_result = cand_result
                improved = True
                break
            if evals >= max_evals:
                break
    return current, [
        v for v in current_result.violations if v.invariant == invariant
    ]


# ---------------------------------------------------------------------- #
# Repro artifacts
# ---------------------------------------------------------------------- #


def write_artifact(
    path: str | Path,
    spec: ScenarioSpec,
    violations: list[Violation],
    *,
    invariant: str | None = None,
) -> Path:
    """Pin a (minimized) scenario plus its violations as a JSON repro."""
    if invariant is None and violations:
        invariant = violations[0].invariant
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "invariant": invariant,
        "spec": spec.to_dict(),
        "violations": [v.to_dict() for v in violations],
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | Path) -> tuple[ScenarioSpec, dict]:
    """Load a repro artifact; returns ``(spec, full payload)``."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != ARTIFACT_SCHEMA:
        raise ConfigurationError(
            f"{path}: not a {ARTIFACT_SCHEMA} artifact "
            f"(schema={payload.get('schema')!r})"
        )
    return ScenarioSpec.from_dict(payload["spec"]), payload
