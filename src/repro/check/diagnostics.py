"""Diagnostic codes and the :class:`Diagnostic` record.

Every check in the verifier — domain pass or code lint — reports findings
as :class:`Diagnostic` values carrying a *stable* ``RCxxx`` code, a human
message, and a concrete witness.  Codes never change meaning once
published; ``docs/static_analysis.md`` is the user-facing catalogue and
:data:`CODES` is its machine-readable twin (the CLI renders SARIF rule
metadata from it, and the test suite asserts the two stay in sync).

Code ranges
-----------

* ``RC1xx`` — structural well-formedness of a task triple ``(I, O, Δ)``.
* ``RC2xx`` — pipeline-stage invariants (canonical form, LAP-freeness,
  link-connectivity) that hold *after* the Section 3/4 transforms.
* ``RC3xx`` — totality/reachability of the carrier map ``Δ``.
* ``RC4xx`` — Level-2 source lints over ``src/repro`` itself.
* ``RC5xx`` — Level-3 interprocedural effect analysis: cache-soundness
  (``RC50x``) and fork-safety (``RC51x``) over the whole-package call
  graph (:mod:`repro.check.effects`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: Diagnostic severities, ordered from least to most severe.
SEVERITIES: Tuple[str, ...] = ("note", "warning", "error")

Severity = str


@dataclass(frozen=True)
class CodeInfo:
    """Metadata for one stable diagnostic code."""

    code: str
    slug: str
    level: int  # 1 = domain pass, 2 = source lint, 3 = interprocedural
    stage: str  # "structure" | "canonical" | "link" | "lint" | "effects"
    summary: str


def _registry(*infos: CodeInfo) -> Dict[str, CodeInfo]:
    out: Dict[str, CodeInfo] = {}
    for info in infos:
        if info.code in out:
            raise ValueError(f"duplicate diagnostic code {info.code}")
        out[info.code] = info
    return out


#: The complete, stable code registry.
CODES: Mapping[str, CodeInfo] = _registry(
    # -- RC1xx: structural well-formedness --------------------------------
    CodeInfo(
        "RC101",
        "improper-coloring",
        1,
        "structure",
        "A facet of the input or output complex is not properly colored "
        "(a colorless vertex, or a repeated process id).",
    ),
    CodeInfo(
        "RC102",
        "carrier-not-monotone",
        1,
        "structure",
        "Δ is not monotone: the image of a face is not a subcomplex of the "
        "image of a containing simplex.",
    ),
    CodeInfo(
        "RC103",
        "name-not-preserved",
        1,
        "structure",
        "Δ does not preserve process names: some image facet carries a "
        "different color set than its input simplex.",
    ),
    CodeInfo(
        "RC104",
        "dimension-mismatch",
        1,
        "structure",
        "The input and output complexes have different dimensions.",
    ),
    CodeInfo(
        "RC105",
        "impure-complex",
        1,
        "structure",
        "The input complex is not pure: some facet has dimension below the "
        "complex dimension.",
    ),
    CodeInfo(
        "RC106",
        "image-outside-codomain",
        1,
        "structure",
        "An image of Δ contains a simplex that is not in the codomain.",
    ),
    CodeInfo(
        "RC107",
        "delta-not-rigid",
        1,
        "structure",
        "Δ is not rigid: some nonempty image is impure or has the wrong "
        "dimension.",
    ),
    # -- RC2xx: pipeline-stage invariants ---------------------------------
    CodeInfo(
        "RC201",
        "not-canonical-form",
        1,
        "canonical",
        "The task is not in canonical form: an output vertex has zero or "
        "several input-vertex preimages, or two input facets share an "
        "image facet (Section 3).",
    ),
    CodeInfo(
        "RC202",
        "residual-LAP",
        1,
        "link",
        "A local articulation point survives: some vertex of Δ(σ) has a "
        "disconnected link inside Δ(σ) (Section 4).",
    ),
    CodeInfo(
        "RC203",
        "link-disconnected",
        1,
        "link",
        "A vertex of the complex has a disconnected link, so the complex "
        "is not link-connected.",
    ),
    # -- RC3xx: totality / reachability -----------------------------------
    CodeInfo(
        "RC301",
        "delta-not-total",
        1,
        "structure",
        "Δ is not total (strict): some input simplex has an empty image.",
    ),
    CodeInfo(
        "RC302",
        "output-unreachable",
        1,
        "structure",
        "The output complex contains facets no image of Δ can reach, "
        "violating the paper's standing assumption O = ∪ Δ(σ).",
    ),
    # -- RC4xx: Level-2 source lints --------------------------------------
    CodeInfo(
        "RC401",
        "interned-mutation",
        2,
        "lint",
        "Code outside the topology core writes to an attribute of an "
        "interned Simplex/Vertex (or calls object.__setattr__), which "
        "would corrupt every aliased copy.",
    ),
    CodeInfo(
        "RC402",
        "cache-internals-access",
        2,
        "lint",
        "Code outside repro.topology reaches into the memoization "
        "internals (`_cache` slot or private module state of "
        "repro.topology.cache).",
    ),
    CodeInfo(
        "RC403",
        "memoized-call-in-caching-disabled",
        2,
        "lint",
        "Library code calls a memoized query inside a caching_disabled() "
        "block; the bypass context is reserved for benchmarks.",
    ),
    CodeInfo(
        "RC404",
        "mutable-topology-dataclass",
        2,
        "lint",
        "A dataclass in repro.topology or repro.splitting is not "
        "frozen=True; shared topology values must be immutable.",
    ),
    CodeInfo(
        "RC405",
        "nondeterministic-generation",
        2,
        "lint",
        "Task generation or census code uses an unseeded randomness or "
        "wall-clock source, breaking seed-reproducibility of aggregates.",
    ),
    CodeInfo(
        "RC407",
        "unknown-suppression-code",
        2,
        "lint",
        "An inline suppression comment (`# repro: ignore[...]`) names a "
        "diagnostic code that does not exist, so it suppresses nothing.",
    ),
    # -- RC50x: Level-3 cache-soundness (repro.check.effects) --------------
    CodeInfo(
        "RC501",
        "unseeded-rng-under-cache",
        3,
        "effects",
        "Unseeded randomness (module-level random, os.urandom, uuid4, "
        "secrets) is reachable from a memoized or disk-persisted entry "
        "point; cached verdicts would not be functions of their keys. "
        "Hard error: cannot be declared in the baseline.",
    ),
    CodeInfo(
        "RC502",
        "env-read-under-cache",
        3,
        "effects",
        "An os.environ/os.getenv read is reachable from a cached entry "
        "point; results would depend on un-keyed process state. Hard "
        "error: cannot be declared in the baseline.",
    ),
    CodeInfo(
        "RC503",
        "clock-under-cache",
        3,
        "effects",
        "A wall/monotonic clock read is reachable from a cached entry "
        "point without a baseline declaration that it only feeds "
        "telemetry, never the cached value.",
    ),
    CodeInfo(
        "RC504",
        "filesystem-under-cache",
        3,
        "effects",
        "Filesystem access outside the declared diskstore boundary is "
        "reachable from a cached entry point.",
    ),
    CodeInfo(
        "RC505",
        "global-write-under-cache",
        3,
        "effects",
        "A write to module-level or class-level state is reachable from a "
        "cached entry point without a baseline declaration that the "
        "mutation is idempotent and content-keyed.",
    ),
    CodeInfo(
        "RC506",
        "interned-mutation-under-cache",
        3,
        "effects",
        "Mutation of interned Simplex/Vertex state is reachable from a "
        "cached entry point; aliased copies shared across cache entries "
        "would be corrupted.",
    ),
    CodeInfo(
        "RC509",
        "stale-baseline-entry",
        3,
        "effects",
        "The committed effects baseline declares an effect the analysis "
        "no longer finds; the entry should be removed so the baseline "
        "stays an exact inventory.",
    ),
    # -- RC51x: Level-3 fork-safety (repro.check.effects) ------------------
    CodeInfo(
        "RC511",
        "unpicklable-worker-dispatch",
        3,
        "effects",
        "A lambda or nested closure is dispatched to a multiprocessing "
        "pool; it is unpicklable under spawn and silently captures parent "
        "state under fork.",
    ),
    CodeInfo(
        "RC512",
        "warm-table-mutation-in-worker",
        3,
        "effects",
        "A pool worker mutates module-global or interned state (pre-fork "
        "warm tables); the mutation is invisible to the parent and to "
        "sibling workers, so results depend on process placement.",
    ),
    CodeInfo(
        "RC513",
        "undeclared-gauge-in-worker",
        3,
        "effects",
        "Worker-reachable code sets an obs gauge whose merge policy is "
        "never declared with set_gauge_policy(); cross-process snapshot "
        "merging would silently apply the default.",
    ),
)


def describe_code(code: str) -> CodeInfo:
    """Look up a code's metadata; raises :class:`KeyError` for unknown codes."""
    return CODES[code]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a message, and a concrete witness.

    ``subject`` names what was checked (a task name, complex name or file
    path); ``witness`` is the offending object rendered as text (simplex,
    vertex, link component, source line); ``location`` is ``file:line:col``
    for source lints and ``None`` for domain findings.
    """

    code: str
    message: str
    subject: str
    witness: Optional[str] = None
    location: Optional[str] = None
    severity: Severity = "error"
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def slug(self) -> str:
        """The code's stable human-readable slug (e.g. ``improper-coloring``)."""
        return CODES[self.code].slug

    def render(self) -> str:
        """One-line text rendering, used by the CLI's text format."""
        where = f"{self.location}: " if self.location else ""
        head = f"{where}{self.code} {self.slug} [{self.subject}]"
        tail = f" — witness: {self.witness}" if self.witness else ""
        return f"{head}: {self.message}{tail}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (stable field names)."""
        out: Dict[str, object] = {
            "code": self.code,
            "slug": self.slug,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.location is not None:
            out["location"] = self.location
        if self.extra:
            out["extra"] = dict(self.extra)
        return out
