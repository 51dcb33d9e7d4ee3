"""The canonical, typed description of an optimization job.

Until this module existed the same exploration job was described four
different ways — ``co_optimize``'s keyword list, the engine's
:class:`~repro.engine.batch.BatchJob`, the service's ad-hoc submit
dicts, and each CLI subcommand's argparse namespace — and every new
option had to be threaded through all four by hand.  ``repro.api``
collapses them onto two frozen dataclasses:

* :class:`OptimizeSpec` — everything one ``co_optimize`` call takes
  beyond the SOC itself: the TAM budget, the TAM count(s), and the
  enumerator/polish/prune knobs;
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
from dataclasses import dataclass
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

#: Option fields of :class:`OptimizeSpec` (everything except the TAM
#: budget and counts) with their defaults — the single source of
#: truth the canonicalization fills absent options from.
OPTION_DEFAULTS: Dict[str, Any] = {
    "enumerator": "unique",
    "polish": True,
    "polish_top_k": 1,
    "polish_per_tam_count": False,
    "exact_node_limit": 2_000_000,
    "prune": True,
    # -- the heuristic search tier (mode="search") ------------------
    # The seed is a *result-defining* input (a search outcome is a
    # pure function of spec + seed), so it lives in the canonical key
    # like every other option; runs with different seeds are
    # different grid points, never memo aliases.
    "mode": "exact",
    "search_strategy": "sa",
    "seed": 0,
    "eval_budget": 20000,
    "target_gap": 0.0,
}

#: The option fields only meaningful under ``mode="search"``; a spec
#: that sets any of them away from its default while ``mode`` stays
#: ``"exact"`` is rejected at construction (the knob would silently
#: do nothing).
SEARCH_ONLY_OPTIONS: Tuple[str, ...] = (
    "search_strategy", "seed", "eval_budget", "target_gap",
)


def _frozen_counts(
    num_tams: Union[int, Iterable[int], None]
) -> Union[int, Tuple[int, ...], None]:
    """Freeze a counts iterable to a tuple; ints and None pass through."""
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


def _job_payload(
    fingerprint: str,
    total_width: int,
    num_tams: Union[int, Tuple[int, ...], None],
    options: Mapping[str, Any],
) -> Dict[str, Any]:
    """One grid point's canonical content, defaults filled in.

    Shared by :func:`jobs_canonical_key` and
    :meth:`GridSpec.canonical_key` so a grid hashes identically
    whether it arrived as typed specs, raw :class:`~repro.engine.
    batch.BatchJob` s, or a v1 IPC dict.
    """
    merged: Dict[str, Any] = dict(OPTION_DEFAULTS)
    for key, value in options.items():
        merged[key] = _normalized_option(key, value)
    return {
        "soc": fingerprint,
        "total_width": int(total_width),
        "num_tams": _canonical_counts(num_tams),
        "options": merged,
    }


def _digest(payload: Any) -> str:
    """Stable hex digest of a canonical-JSON payload."""
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def jobs_canonical_key(jobs: Sequence["BatchJob"]) -> str:
    """Content hash of a grid given as engine jobs, order-sensitive.

    Equals :meth:`GridSpec.canonical_key` for the grid the spec
    resolves to.  Option values must be immutable (the jobs are
    hashed first); a mutable value raises ``TypeError``, which the
    IPC layer reports as a malformed request.
    """
    job_tuple = tuple(jobs)
    hash(job_tuple)  # reject mutable option values up front
    return _digest({
        "spec": SPEC_SCHEMA_VERSION,
        "jobs": [
            _job_payload(
                soc_fingerprint(job.soc),
                job.total_width,
                job.num_tams,
                job.options_dict(),
            )
            for job in job_tuple
        ],
    })


@dataclass(frozen=True)
class OptimizeSpec:
    """Everything one ``co_optimize`` call takes beyond the SOC.

    Immutable, hashable, and picklable.  ``num_tams`` follows
    :func:`~repro.optimize.co_optimize.co_optimize`: a single count
    (P_PAW), a tuple of counts, or ``None`` for the paper's per-width
    P_NPAW default ``range(1, min(10, W) + 1)``.  See the module
    docstring for what is (and is not) validated here.
    """

    total_width: int
    num_tams: Union[int, Tuple[int, ...], None] = None
    enumerator: str = "unique"
    polish: bool = True
    polish_top_k: int = 1
    polish_per_tam_count: bool = False
    exact_node_limit: int = 2_000_000
    prune: bool = True
    mode: str = "exact"
    search_strategy: str = "sa"
    seed: int = 0
    eval_budget: int = 20000
    target_gap: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.total_width, int) or isinstance(
            self.total_width, bool
        ):
            raise ConfigurationError(
                f"total_width must be an int, got "
                f"{type(self.total_width).__name__}"
            )
        if self.total_width < 1:
            raise ConfigurationError(
                f"total_width must be >= 1, got {self.total_width}"
            )
        object.__setattr__(
            self, "num_tams", _frozen_counts(self.num_tams)
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
        if not isinstance(self.polish_top_k, int) or self.polish_top_k < 1:
            raise ConfigurationError(
                f"polish_top_k must be >= 1, got {self.polish_top_k}"
            )
        if not isinstance(self.exact_node_limit, int) \
                or self.exact_node_limit < 1:
            raise ConfigurationError(
                f"exact_node_limit must be >= 1, got "
                f"{self.exact_node_limit!r}"
            )
        if not isinstance(self.enumerator, str):
            raise ConfigurationError(
                f"enumerator must be a string, got {self.enumerator!r}"
            )
        if not isinstance(self.prune, bool):
            raise ConfigurationError(
                f"prune must be a bool, got {self.prune!r}"
            )
        # The mode axis is structural: it gates which *other* fields
        # are legal, so unlike enumerator it is checked here rather
        # than per grid point.
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if not isinstance(self.search_strategy, str):
            raise ConfigurationError(
                f"search_strategy must be a string, got "
                f"{self.search_strategy!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ConfigurationError(
                f"seed must be an int >= 0, got {self.seed!r}"
            )
        if not isinstance(self.eval_budget, int) \
                or isinstance(self.eval_budget, bool) \
                or self.eval_budget < 1:
            raise ConfigurationError(
                f"eval_budget must be an int >= 1, got "
                f"{self.eval_budget!r}"
            )
        if not isinstance(self.target_gap, (int, float)) \
                or isinstance(self.target_gap, bool) \
                or self.target_gap < 0:
            raise ConfigurationError(
                f"target_gap must be >= 0, got {self.target_gap!r}"
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

        The inverse of :meth:`engine_options`.  Unknown option keys
        raise :class:`~repro.exceptions.ConfigurationError` — this is
        the drift guard that used to be a runtime ``TypeError`` deep
        inside a pool worker.
        """
        options = dict(options or {})
        unknown = sorted(set(options) - set(OPTION_DEFAULTS))
        if unknown:
            raise ConfigurationError(
                f"unknown co_optimize option(s): {', '.join(unknown)} "
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

    def canonical_payload(self, fingerprint: str) -> Dict[str, Any]:
        """This spec's share of a grid's canonical content."""
        return _job_payload(
            fingerprint, self.total_width, self.num_tams,
            {key: getattr(self, key) for key in OPTION_DEFAULTS},
        )

    def canonical_key(self, fingerprint: str = "") -> str:
        """Content hash of this spec (optionally bound to a SOC)."""
        return _digest({
            "spec": SPEC_SCHEMA_VERSION,
            "jobs": [self.canonical_payload(fingerprint)],
        })


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
        counts = _frozen_counts(num_tams)
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
            BatchJob(
                soc=soc,
                total_width=point.total_width,
                num_tams=point.num_tams,
                options=point.engine_options(),
            )
            for soc in self.resolve_socs(resolver)
            for point in self.points
        ]

    def canonical_key(self, resolver: Any = None) -> str:
        """Content hash of the resolved grid; the memo key.

        Hashes SOC *content* fingerprints (not names), normalized
        options (defaults filled, ``B`` ≡ ``(B,)``), and the spec
        schema version.  Equal to :func:`jobs_canonical_key` over
        :meth:`jobs`, so a grid memoizes identically however it was
        expressed.  ``runner`` hints are excluded.
        """
        return _digest({
            "spec": SPEC_SCHEMA_VERSION,
            "jobs": [
                point.canonical_payload(soc_fingerprint(soc))
                for soc in self.resolve_socs(resolver)
                for point in self.points
            ],
        })

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
