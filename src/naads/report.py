"""Structured checker verdicts and their deterministic text rendering.

Certified/Refuted are reserved for exact or finitely checkable claims;
asymptotic claims only ever get Evidence* verdicts.  Reports render as stable
key: value blocks so identical runs produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction


class Verdict(Enum):
    CERTIFIED = "Certified"
    REFUTED = "Refuted"
    EVIDENCE_FOR = "EvidenceFor"
    EVIDENCE_AGAINST = "EvidenceAgainst"
    INCONCLUSIVE_BUDGET = "InconclusiveBudget"


# How a witness's distances are recomputed from its points and times:
#   pair_orbit:   distances[i] = d(omega_{t_i}(p0), omega_{t_i}(p1))
#   point_return: distances[i] = d(omega_{t_i}(p0), p0)
#   point_target: distances[i] = d(omega_{t_i}(p0), p1)
#   hull_miss:    distances[0] = min distance from the hull sample of p0 to p1
WITNESS_KINDS = ("pair_orbit", "point_return", "point_target", "hull_miss")


@dataclass(frozen=True)
class Witness:
    kind: str
    points: tuple
    times: tuple
    distances: tuple
    note: str = ""

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")


def format_value(v) -> str:
    """Deterministic scalar/collection formatting shared by all reports."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Verdict):
        return v.value
    if isinstance(v, Fraction):
        try:
            return str(v)
        except ValueError:  # decimal past Python's int-string limit
            return f"{v.numerator:#x}/{v.denominator:#x}"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(format_value(e) for e in v) + "]"
    if v is None:
        return "none"
    return str(v)


def render_record(schema: str, items, timestamp: str | None = None, head=()) -> str:
    """The one writer of report lines: ``key: value``, values by format_value.

    ``head`` pairs come first, then the schema line and the timestamp (when
    given), then the ordered ``(key, value)`` pairs of ``items``.
    """
    pairs = [*head, ("schema", schema)]
    if timestamp is not None:
        pairs.append(("timestamp", timestamp))
    pairs.extend(items)
    return "".join(f"{key}: {format_value(value)}\n" for key, value in pairs)


def _field_pairs(record):
    """A dataclass record's fields as ordered ``(name, value)`` pairs."""
    return [(f.name, getattr(record, f.name)) for f in fields(record)]


@dataclass
class PropertyReport:
    property: str
    verdict: Verdict
    parameters: dict = field(default_factory=dict)
    witnesses: list[Witness] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def _fields(self):
        yield "property", self.property
        yield "verdict", self.verdict
        for key in sorted(self.parameters):
            yield f"param.{key}", self.parameters[key]
        for key in sorted(self.details):
            yield f"detail.{key}", self.details[key]
        for i, w in enumerate(self.witnesses, start=1):
            yield f"witness.{i}.kind", w.kind
            yield f"witness.{i}.points", w.points
            yield f"witness.{i}.times", w.times
            yield f"witness.{i}.distances", w.distances
            if w.note:
                yield f"witness.{i}.note", w.note

    def render(self, timestamp: str | None = None, head=()) -> str:
        return render_record("naads-report/1", self._fields(), timestamp, head)


@dataclass
class ReturnTimeSet:
    """Times |n| <= window_n at which the flow returns eps-close to base.

    censored_left_gap / censored_right_gap measure from the window edges to
    the nearest return: a finite window cannot witness unbounded gaps, so
    edge gaps are reported separately from internal ones.
    """

    base: float
    eps: float
    window_n: int
    times: list[int]
    max_internal_gap: int
    censored_left_gap: int
    censored_right_gap: int

    def render(self, timestamp: str | None = None, head=()) -> str:
        return render_record(
            "naads-return-times/1", _field_pairs(self), timestamp, head
        )


@dataclass(frozen=True)
class ProximalExtremes:
    """Extremes of the pair distance d(omega_n(x), omega_n(y)) over a window."""

    min_distance: float
    argmin_time: int
    max_distance: float
    argmax_time: int

    def render(self, timestamp: str | None = None, head=()) -> str:
        # this schema puts ``head`` after the schema and timestamp lines
        return render_record(
            "naads-proximal/1", [*head, *_field_pairs(self)], timestamp
        )
