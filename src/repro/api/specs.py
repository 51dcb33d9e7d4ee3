"""The canonical, typed description of an optimization job.

Until this module existed the same exploration job was described four
different ways — ``co_optimize``'s keyword list, the engine's
:class:`~repro.engine.batch.BatchJob`, the service's ad-hoc submit
dicts, and each CLI subcommand's argparse namespace — and every new
option had to be threaded through all four by hand.  ``repro.api``
collapses them onto two frozen dataclasses:

* :class:`OptimizeSpec` — everything one ``co_optimize`` call takes
  beyond the SOC itself: the TAM budget, the TAM count(s), and the
  options (enumerator, polish, prune, mode and the search knobs).
  Its fields are the one definition of the options — names,
  defaults, documentation and types; :data:`OPTION_DEFAULTS` is
  computed from them, and every surface that takes options as
  keywords or a mapping checks them through
  :meth:`OptimizeSpec.from_options`;
* :class:`GridSpec` — a whole submission: SOC *sources* (benchmark
  names or ``.soc`` paths, resolved by :func:`repro.soc.loader.
  load_source`) crossed with per-point :class:`OptimizeSpec` s, plus
  execution hints that do not affect results.

Both serialize through schema-versioned ``to_dict``/``from_dict``
(loaders reject unknown schema versions and unknown fields instead of
guessing), validate on construction with
:class:`~repro.exceptions.ConfigurationError`, and reduce to a
:meth:`~GridSpec.canonical_key` — a content hash over the resolved
SOC fingerprints and the *normalized* option set.  The key is what
the exploration server memoizes on, in memory and on disk, so
identical grids submitted through any surface (Python API, CLI
``batch``, IPC v1 or v2) collapse onto one cache entry that survives
server restarts.

Validation here is *structural* (types, ranges, unknown fields).
String-valued knobs such as ``enumerator`` are deliberately checked
by the execution layer instead, so a bad value fails per grid point
(a structured :class:`~repro.engine.batch.FailedPoint`) rather than
rejecting a whole submission.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import ConfigurationError
from repro.soc.fingerprint import soc_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.batch import BatchJob
    from repro.soc.soc import Soc

#: Schema version of the spec dictionaries.  Bump on any change to
#: the field set or its canonicalization; loaders refuse versions
#: they do not know, and the canonical key folds the version in so a
#: schema change can never alias an old memo entry.
#:
#: Version history: 1 — the original exact-only option set;
#: 2 — the ``mode={"exact","search"}`` axis plus the search-tier
#: options (``search_strategy``/``seed``/``time_budget``/
#: ``eval_budget``/``target_gap``); 3 — one sweep engine (its
#: selector option removed) and ``prune`` a plain bool defaulting to
#: ``True`` on every surface; 4 — no wall clock decides an answer:
#: ``exact_time_limit`` and ``time_budget`` removed, so node and
#: evaluation budgets alone define every result.
SPEC_SCHEMA_VERSION = 4

#: Valid ``mode`` values: the paper's exact sweep+polish pipeline,
#: and the anytime metaheuristic tier of :mod:`repro.search`.
MODES: Tuple[str, ...] = ("exact", "search")

#: The paper found architectures beyond ten TAMs "less useful for
#: testing time minimization"; its P_NPAW experiments use this cap.
#: (Re-exported by :mod:`repro.optimize.co_optimize` for backward
#: compatibility.)
DEFAULT_MAX_TAMS = 10


def frozen_tam_counts(
    num_tams: Union[int, Iterable[int], None]
) -> Union[int, Tuple[int, ...], None]:
    """Freeze a counts iterable to a tuple; ints and None pass through.

    The one freezer for TAM counts: specs, engine jobs and the sweeps
    all store counts this way, so a one-shot iterable is reusable and
    the result is hashable.
    """
    if num_tams is None or isinstance(num_tams, int):
        return num_tams
    return tuple(num_tams)


def resolved_tam_counts(
    total_width: int,
    num_tams: Union[int, Iterable[int], None],
) -> Tuple[int, ...]:
    """The TAM counts a job actually sweeps, defaults applied.

    ``None`` means the paper's per-width P_NPAW default
    ``1..min(10, W)``; a single count and explicit iterables pass
    through.  This is the one resolution rule shared by
    :func:`~repro.optimize.co_optimize.co_optimize` and the batch
    engine's intra-job shard planner, so both enumerate the identical
    partition space.
    """
    if num_tams is None:
        return tuple(
            range(1, min(DEFAULT_MAX_TAMS, total_width) + 1)
        )
    if isinstance(num_tams, int):
        return (num_tams,)
    return tuple(num_tams)


def _canonical_counts(
    num_tams: Union[int, Tuple[int, ...], None]
) -> Optional[List[int]]:
    """Normalize TAM counts for hashing: ``B`` and ``(B,)`` coincide."""
    if num_tams is None:
        return None
    if isinstance(num_tams, int):
        return [num_tams]
    return [int(count) for count in num_tams]


def _normalized_option(key: str, value: Any) -> Any:
    """Coerce ``value`` to the numeric type of ``key``'s default.

    Makes ``{"target_gap": 0}`` and ``0.0`` hash identically
    without touching bools, strings, or unknown keys.
    """
    default = OPTION_DEFAULTS.get(key)
    if isinstance(default, bool) or isinstance(value, bool):
        return value
    if isinstance(default, int) and isinstance(value, (int, float)):
        return int(value)
    if isinstance(default, float) and isinstance(value, (int, float)):
        return float(value)
    return value


def jobs_canonical_key(jobs: Sequence["BatchJob"]) -> str:
    """Content hash of a grid given as engine jobs, order-sensitive.

    The one canonical-key function: :meth:`GridSpec.canonical_key` is
    this hash over :meth:`GridSpec.jobs`.  Per job it hashes the SOC's
    content fingerprint, the TAM budget, the counts (``B`` and
    ``(B,)`` coincide) and the options with defaults filled in and
    numeric types normalized, plus the spec schema version.  Option
    values must be immutable (the jobs are hashed first); a mutable
    value raises ``TypeError``.
    """
    job_tuple = tuple(jobs)
    hash(job_tuple)  # reject mutable option values up front
    payloads: List[Dict[str, Any]] = []
    for job in job_tuple:
        options: Dict[str, Any] = dict(OPTION_DEFAULTS)
        for key, value in job.options:
            options[key] = _normalized_option(key, value)
        payloads.append({
            "soc": soc_fingerprint(job.soc),
            "total_width": int(job.total_width),
            "num_tams": _canonical_counts(job.num_tams),
            "options": options,
        })
    text = json.dumps(
        {"spec": SPEC_SCHEMA_VERSION, "jobs": payloads},
        sort_keys=True, separators=(",", ":"), default=repr,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class OptimizeSpec:
    """Everything one ``co_optimize`` call takes beyond the SOC.

    The one definition of the job options: every field after
    ``num_tams`` is an option, and its declaration below is its name,
    default, documentation and type.  :data:`OPTION_DEFAULTS` and
    :data:`SEARCH_ONLY_OPTIONS` are computed from these fields, and
    construction checks the TAM budget and each option against its
    annotation (a bool option takes only a bool, an int field never
    a bool) and its ``min``/``choices`` metadata.  See the module
    docstring for what is (and is not) validated here.  Immutable,
    hashable, and picklable.
    """

    #: Total TAM width ``W`` available at the SOC pins.
    total_width: int = field(metadata={"min": 1})
    #: A single TAM count (problem P_PAW), a tuple of counts, or
    #: ``None`` for the paper's per-width P_NPAW default
    #: ``range(1, min(10, W) + 1)``.
    num_tams: Union[int, Tuple[int, ...], None] = None
    #: ``Partition_evaluate``'s enumerator: ``"unique"`` or
    #: ``"increment"``.
    enumerator: str = "unique"
    #: When False, skip the exact final step and return the heuristic
    #: assignment (measures the polish's contribution).
    polish: bool = True
    #: How many of the sweep's best distinct partitions to polish
    #: exactly.  1 is the paper's method.  Larger values mitigate the
    #: anomaly the paper documents in its conclusion: the
    #: heuristically best partition is not always the best after exact
    #: optimization, so polishing the runners-up and keeping the
    #: overall winner can only improve the result (at k times the
    #: polish cost and a slightly slower sweep).
    polish_top_k: int = field(default=1, metadata={"min": 1})
    #: When True, the sweep keeps the best partition of *every* TAM
    #: count and the polish visits each of them.  This targets the
    #: anomaly's usual form, the heuristic picking the wrong number of
    #: TAMs, at the cost of weaker cross-B pruning during the sweep.
    #: Composes with ``polish_top_k`` (top-k per B).
    polish_per_tam_count: bool = False
    #: Node budget of each exact solve.
    exact_node_limit: int = field(default=2_000_000, metadata={"min": 1})
    #: Partition-sweep pruning: ``True`` is the paper's
    #: best-known-time abort, with the dense kernel's
    #: outcome-identical lower-bound skip in front of it; ``False``
    #: disables pruning for ablations.
    prune: bool = True
    #: The tier: ``"exact"`` is the paper's sweep + polish pipeline,
    #: ``"search"`` the anytime metaheuristic tier of
    #: :mod:`repro.search`, for which the exact-tier options above are
    #: inert.  Structural (it gates which other options are legal), so
    #: unlike ``enumerator`` it is checked here.
    mode: str = field(default="exact", metadata={"choices": MODES})
    # -- the search tier: away from their defaults only under
    # mode="search" ---------------------------------------------------
    #: The metaheuristic: ``"sa"`` (simulated annealing) or ``"ga"``
    #: (the steady-state genetic algorithm).
    search_strategy: str = field(
        default="sa", metadata={"search_only": True}
    )
    #: The RNG seed, the search's sole source of randomness.  A search
    #: outcome is a pure function of spec + seed, so the seed is part
    #: of the canonical key: runs with different seeds are different
    #: grid points, never memo aliases.
    seed: int = field(default=0, metadata={"search_only": True, "min": 0})
    #: Candidate-evaluation budget, split across the islands.
    eval_budget: int = field(
        default=20000, metadata={"search_only": True, "min": 1}
    )
    #: Stop early once the incumbent is within this relative gap of
    #: the lower bound; ``0.0`` stops early only at a proven optimum.
    target_gap: float = field(
        default=0.0, metadata={"search_only": True, "min": 0}
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "num_tams", frozen_tam_counts(self.num_tams)
        )
        if isinstance(self.num_tams, tuple):
            if not self.num_tams:
                raise ConfigurationError("num_tams iterable is empty")
            for count in self.num_tams:
                if not isinstance(count, int) or count < 1:
                    raise ConfigurationError(
                        f"TAM counts must be ints >= 1, got {count!r}"
                    )
        elif isinstance(self.num_tams, int) and self.num_tams < 1:
            raise ConfigurationError(
                f"num_tams must be >= 1, got {self.num_tams}"
            )
        for name, annotation, minimum, choices in _FIELD_CHECKS:
            value = getattr(self, name)
            kinds, noun = _FIELD_TYPES[annotation]
            if not isinstance(value, kinds) or (
                bool not in kinds and isinstance(value, bool)
            ):
                raise ConfigurationError(
                    f"{name} must be {noun}, got {value!r}"
                )
            if minimum is not None and value < minimum:
                raise ConfigurationError(
                    f"{name} must be >= {minimum}, got {value!r}"
                )
            if choices and value not in choices:
                raise ConfigurationError(
                    f"{name} must be one of {choices}, got {value!r}"
                )
        object.__setattr__(self, "target_gap", float(self.target_gap))
        if self.mode != "search":
            stray = [
                key for key in SEARCH_ONLY_OPTIONS
                if getattr(self, key) != OPTION_DEFAULTS[key]
            ]
            if stray:
                raise ConfigurationError(
                    f"option(s) {', '.join(stray)} only apply to "
                    f'mode="search" (this spec has mode='
                    f"{self.mode!r})"
                )

    @classmethod
    def from_options(
        cls,
        total_width: int,
        num_tams: Union[int, Iterable[int], None] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> "OptimizeSpec":
        """Build a spec from a sparse engine-style options mapping.

        The inverse of :meth:`engine_options`, and the one check every
        options surface goes through (``co_optimize``,
        ``evaluate_point``, engine jobs, service submissions, the
        CLI): an unknown option key, like a mistyped value, raises
        :class:`~repro.exceptions.ConfigurationError` naming it.
        """
        options = dict(options or {})
        unknown = sorted(map(str, set(options) - set(OPTION_DEFAULTS)))
        if unknown:
            raise ConfigurationError(
                f"unknown option(s): {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(OPTION_DEFAULTS))})"
            )
        return cls(total_width=total_width, num_tams=num_tams, **options)

    def engine_options(self) -> Dict[str, Any]:
        """The non-default option fields, as sparse keyword arguments.

        This is what :class:`~repro.engine.batch.BatchJob.options`
        carries: sparse on purpose, so a job names only the knobs it
        moves away from :data:`OPTION_DEFAULTS`.
        """
        return {
            key: getattr(self, key)
            for key, default in OPTION_DEFAULTS.items()
            if getattr(self, key) != default
        }

    def to_dict(self) -> Dict[str, Any]:
        """Schema-versioned plain-data form (JSON-ready)."""
        counts: Union[int, List[int], None] = (
            list(self.num_tams)
            if isinstance(self.num_tams, tuple) else self.num_tams
        )
        record: Dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": "optimize_spec",
            "total_width": self.total_width,
            "num_tams": counts,
        }
        record.update(
            {key: getattr(self, key) for key in OPTION_DEFAULTS}
        )
        return record

    @classmethod
    def from_dict(cls, data: Any) -> "OptimizeSpec":
        """Rebuild a spec, rejecting unknown versions and fields."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"optimize spec must be an object, got "
                f"{type(data).__name__}"
            )
        if data.get("schema") != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported spec schema {data.get('schema')!r}; "
                f"this build reads version {SPEC_SCHEMA_VERSION}"
            )
        if data.get("kind") != "optimize_spec":
            raise ConfigurationError(
                f"expected kind 'optimize_spec', got {data.get('kind')!r}"
            )
        body = {
            key: value for key, value in data.items()
            if key not in ("schema", "kind")
        }
        if "total_width" not in body:
            raise ConfigurationError(
                "optimize spec record missing 'total_width'"
            )
        num_tams = body.pop("num_tams", None)
        if isinstance(num_tams, list):
            num_tams = tuple(num_tams)
        return cls.from_options(
            body.pop("total_width"), num_tams=num_tams, options=body
        )


#: The option fields of :class:`OptimizeSpec` (every field but the TAM
#: budget and counts), in declaration order.
_OPTION_FIELDS = tuple(
    spec_field for spec_field in fields(OptimizeSpec)
    if spec_field.name not in ("total_width", "num_tams")
)

#: Each option with its default, computed from the spec's fields: the
#: defaults the canonicalization fills absent options from.
OPTION_DEFAULTS: Dict[str, Any] = {
    spec_field.name: spec_field.default for spec_field in _OPTION_FIELDS
}

#: The options only meaningful under ``mode="search"`` (their fields'
#: ``search_only`` metadata); a spec that sets any of them away from
#: its default while ``mode`` stays ``"exact"`` is rejected at
#: construction (the knob would silently do nothing).
SEARCH_ONLY_OPTIONS: Tuple[str, ...] = tuple(
    spec_field.name for spec_field in _OPTION_FIELDS
    if spec_field.metadata.get("search_only")
)

#: A field annotation's accepted value types and their name in an
#: error message.
_FIELD_TYPES: Dict[str, Tuple[Tuple[type, ...], str]] = {
    "bool": ((bool,), "a bool"),
    "int": ((int,), "an int"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}

#: What ``OptimizeSpec.__post_init__`` checks per field (the TAM
#: budget and every option): its name, its annotation, and its
#: ``min`` and ``choices`` metadata.
_FIELD_CHECKS: Tuple[Tuple[str, str, Any, Tuple[Any, ...]], ...] = tuple(
    (
        spec_field.name,
        str(spec_field.type),
        spec_field.metadata.get("min"),
        tuple(spec_field.metadata.get("choices", ())),
    )
    for spec_field in fields(OptimizeSpec)
    if spec_field.name != "num_tams"
)


@dataclass(frozen=True)
class GridSpec:
    """A whole submission: SOC sources × per-point optimize specs.

    ``socs`` are *sources* — embedded benchmark names or ``.soc``
    paths — resolved by :func:`repro.soc.loader.load_source` at
    execution time, exactly like the CLI and the IPC protocol resolve
    them; the canonical key hashes the resolved SOCs' *content*
    fingerprints, so renaming a file or a benchmark alias keeps the
    memo warm while editing a core invalidates it.

    ``runner`` holds execution hints (worker counts, transport
    toggles, ...) that do not affect results: serialized, but
    deliberately excluded from :meth:`canonical_key` so a grid run
    with 4 workers memo-hits the same grid run with 16.

    Grid-point order is SOC-major, points (typically widths) fastest
    — the same order every front-end has always used.
    """

    socs: Tuple[str, ...]
    points: Tuple[OptimizeSpec, ...]
    runner: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "socs", tuple(self.socs))
        object.__setattr__(self, "points", tuple(self.points))
        if isinstance(self.runner, Mapping):
            object.__setattr__(
                self, "runner", tuple(sorted(self.runner.items()))
            )
        else:
            object.__setattr__(self, "runner", tuple(self.runner))
        if not self.socs:
            raise ConfigurationError("a grid needs at least one SOC")
        if not self.points:
            raise ConfigurationError(
                "a grid needs at least one optimize spec"
            )
        for source in self.socs:
            if not isinstance(source, str) or not source:
                raise ConfigurationError(
                    f"SOC sources must be non-empty strings, got "
                    f"{source!r}"
                )
        for point in self.points:
            if not isinstance(point, OptimizeSpec):
                raise ConfigurationError(
                    f"grid points must be OptimizeSpec, got "
                    f"{type(point).__name__}"
                )

    @classmethod
    def from_axes(
        cls,
        socs: Sequence[str],
        widths: Sequence[int],
        num_tams: Union[int, Iterable[int], None] = None,
        options: Optional[Mapping[str, Any]] = None,
        runner: Union[Mapping[str, Any],
                      Tuple[Tuple[str, Any], ...]] = (),
    ) -> "GridSpec":
        """The common SOCs × widths grid, every point sharing knobs."""
        width_list = list(widths)
        if not width_list:
            raise ConfigurationError("a grid needs at least one width")
        counts = frozen_tam_counts(num_tams)
        return cls(
            socs=tuple(str(source) for source in socs),
            points=tuple(
                OptimizeSpec.from_options(
                    int(width), num_tams=counts, options=options
                )
                for width in width_list
            ),
            runner=runner,
        )

    @property
    def widths(self) -> Tuple[int, ...]:
        """The per-point TAM budgets, in grid order."""
        return tuple(point.total_width for point in self.points)

    def runner_options(self) -> Dict[str, Any]:
        """The frozen ``runner`` hint pairs as a dictionary."""
        return dict(self.runner)

    def resolve_socs(self, resolver: Any = None) -> List["Soc"]:
        """The SOC objects this grid's sources name, in order."""
        if resolver is None:
            from repro.soc.loader import load_source as resolver
        return [resolver(source) for source in self.socs]

    def jobs(self, resolver: Any = None) -> List["BatchJob"]:
        """The engine jobs this grid describes, in canonical order."""
        from repro.engine.batch import BatchJob

        return [
            BatchJob.from_spec(soc, point)
            for soc in self.resolve_socs(resolver)
            for point in self.points
        ]

    def canonical_key(self, resolver: Any = None) -> str:
        """Content hash of the resolved grid; the memo key.

        :func:`jobs_canonical_key` over :meth:`jobs`: SOC *content*
        fingerprints (not names), normalized options and the spec
        schema version.  ``runner`` hints are excluded.
        """
        return jobs_canonical_key(self.jobs(resolver))

    def describe(self) -> str:
        """Short human-readable summary for logs and progress lines."""
        widths = sorted(set(self.widths))
        return (
            f"{len(self.socs)} SOC(s) x {len(self.points)} point(s) "
            f"(W in {widths})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """Schema-versioned plain-data form (JSON-ready)."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": "grid_spec",
            "socs": list(self.socs),
            "points": [point.to_dict() for point in self.points],
            "runner": {key: value for key, value in self.runner},
        }

    @classmethod
    def from_dict(cls, data: Any) -> "GridSpec":
        """Rebuild a grid spec, rejecting unknown versions and fields."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"grid spec must be an object, got {type(data).__name__}"
            )
        if data.get("schema") != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported spec schema {data.get('schema')!r}; "
                f"this build reads version {SPEC_SCHEMA_VERSION}"
            )
        if data.get("kind") != "grid_spec":
            raise ConfigurationError(
                f"expected kind 'grid_spec', got {data.get('kind')!r}"
            )
        unknown = sorted(
            set(data) - {"schema", "kind", "socs", "points", "runner"}
        )
        if unknown:
            raise ConfigurationError(
                f"unknown grid spec field(s): {', '.join(unknown)}"
            )
        socs = data.get("socs")
        points = data.get("points")
        if not isinstance(socs, list) or not socs:
            raise ConfigurationError(
                "grid spec needs a non-empty 'socs' list"
            )
        if not isinstance(points, list) or not points:
            raise ConfigurationError(
                "grid spec needs a non-empty 'points' list"
            )
        runner = data.get("runner") or {}
        if not isinstance(runner, dict):
            raise ConfigurationError("'runner' must be an object")
        return cls(
            socs=tuple(str(source) for source in socs),
            points=tuple(
                OptimizeSpec.from_dict(point) for point in points
            ),
            runner=tuple(sorted(runner.items())),
        )
