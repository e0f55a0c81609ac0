"""Performance regression gates over profiles (CI for §6's loop).

Once the §6 iterative loop has driven a bottleneck down, teams want it
to *stay* down.  A :class:`Baseline` captures per-routine expectations
from a known-good profile (as tolerant percentages, not absolute
seconds — simulators and machines vary); :func:`check` evaluates a
fresh profile against it and reports violations, ready to fail a CI
job.

Rules supported per routine:

* ``max_total_percent`` — the routine (with descendants) must not grow
  past this share of total time;
* ``max_self_percent`` — likewise for self time only;
* ``max_calls`` — call-count budget (e.g. "the rehash path runs at
  most N times");
* ``must_run`` / ``must_not_run`` — §2's boolean coverage view as a
  gate ("the old implementation must be gone").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.analysis import Profile
from repro.errors import ReproError

FORMAT = "repro-baseline-1"


@dataclass(frozen=True)
class Rule:
    """Expectations for one routine.

    Unset fields (None/False) are not checked.
    """

    name: str
    max_total_percent: float | None = None
    max_self_percent: float | None = None
    max_calls: int | None = None
    must_run: bool = False
    must_not_run: bool = False


@dataclass(frozen=True)
class Violation:
    """One failed expectation, with measured vs allowed values."""

    name: str
    rule: str
    allowed: object
    measured: object

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.rule} violated "
            f"(allowed {self.allowed}, measured {self.measured})"
        )


@dataclass
class Baseline:
    """A set of per-routine rules, serializable for the repository."""

    rules: list[Rule] = field(default_factory=list)
    comment: str = ""

    def rule_for(self, name: str) -> Rule | None:
        """The rule covering ``name``, if any.

        O(1): a name index is built on first use and rebuilt if the
        rule list changes size (first rule wins on duplicates, matching
        the original scan order).
        """
        index = self.__dict__.get("_rule_index")
        if index is None or len(index) != len(self.rules):
            index = {}
            for rule in self.rules:
                index.setdefault(rule.name, rule)
            self.__dict__["_rule_index"] = index
        return index.get(name)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_profile(
        cls,
        profile: Profile,
        headroom: float = 1.25,
        min_percent: float = 1.0,
        comment: str = "",
    ) -> "Baseline":
        """Capture a known-good profile as a tolerant baseline.

        Every routine at or above ``min_percent`` of total time gets a
        ``max_total_percent`` budget of ``headroom`` times its current
        share (capped at 100).
        """
        if headroom < 1.0:
            raise ReproError(f"headroom must be >= 1.0, got {headroom}")
        rules = [
            Rule(
                name=entry.name,
                max_total_percent=min(entry.percent * headroom, 100.0),
                must_run=True,
            )
            for entry in profile.graph_entries
            if not entry.is_cycle and entry.percent >= min_percent
        ]
        return cls(rules=rules, comment=comment)

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "comment": self.comment,
            "rules": [
                {
                    "name": r.name,
                    "max_total_percent": r.max_total_percent,
                    "max_self_percent": r.max_self_percent,
                    "max_calls": r.max_calls,
                    "must_run": r.must_run,
                    "must_not_run": r.must_not_run,
                }
                for r in self.rules
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Baseline":
        if data.get("format") != FORMAT:
            raise ReproError(f"unknown baseline format {data.get('format')!r}")
        return cls(
            rules=[
                Rule(
                    name=r["name"],
                    max_total_percent=r.get("max_total_percent"),
                    max_self_percent=r.get("max_self_percent"),
                    max_calls=r.get("max_calls"),
                    must_run=r.get("must_run", False),
                    must_not_run=r.get("must_not_run", False),
                )
                for r in data["rules"]
            ],
            comment=data.get("comment", ""),
        )

    def save(self, path) -> None:
        """Write the baseline as JSON."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def load(cls, path) -> "Baseline":
        """Read a baseline written by :meth:`save`."""
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def check(profile: Profile, baseline: Baseline) -> list[Violation]:
    """Evaluate a fresh profile against a baseline.

    Returns the violations (empty = gate passes), most severe first
    (coverage failures, then budget overruns by relative size).
    """
    violations: list[Violation] = []
    for rule in baseline.rules:
        entry = profile.entry(rule.name)
        ran = entry is not None and (
            entry.ncalls + entry.self_calls > 0 or entry.self_seconds > 0
        )
        if rule.must_run and not ran:
            violations.append(
                Violation(rule.name, "must_run", True, False)
            )
            continue
        if rule.must_not_run and ran:
            violations.append(
                Violation(rule.name, "must_not_run", False, True)
            )
            continue
        if entry is None:
            continue
        if (
            rule.max_total_percent is not None
            and entry.percent > rule.max_total_percent
        ):
            violations.append(
                Violation(
                    rule.name,
                    "max_total_percent",
                    round(rule.max_total_percent, 2),
                    round(entry.percent, 2),
                )
            )
        self_pct = (
            100.0 * entry.self_seconds / profile.total_seconds
            if profile.total_seconds > 0
            else 0.0
        )
        if (
            rule.max_self_percent is not None
            and self_pct > rule.max_self_percent
        ):
            violations.append(
                Violation(
                    rule.name,
                    "max_self_percent",
                    round(rule.max_self_percent, 2),
                    round(self_pct, 2),
                )
            )
        calls = entry.ncalls + entry.self_calls
        if rule.max_calls is not None and calls > rule.max_calls:
            violations.append(
                Violation(rule.name, "max_calls", rule.max_calls, calls)
            )

    def severity(v: Violation):
        if v.rule in ("must_run", "must_not_run"):
            return (0, 0.0)
        try:
            overrun = float(v.measured) / float(v.allowed or 1)
        except (TypeError, ZeroDivisionError):
            overrun = float("inf")
        return (1, -overrun)

    violations.sort(key=lambda v: (*severity(v), v.name))
    return violations


#: The name :mod:`repro.core` exports :func:`check` under.
check_baseline = check


def format_violations(violations: list[Violation]) -> str:
    """A CI-log-friendly rendering of the gate's result."""
    if not violations:
        return "performance gate: PASS\n"
    lines = [f"performance gate: FAIL ({len(violations)} violation(s))"]
    lines.extend(f"  {v}" for v in violations)
    return "\n".join(lines) + "\n"
