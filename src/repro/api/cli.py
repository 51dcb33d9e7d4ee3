"""The shared argparse → spec translator for every CLI surface.

``cooptimize``, ``exhaustive``, ``batch`` and ``submit`` all describe
the same thing — which SOC(s), which TAM budget(s), which counts,
which knobs — but each historically registered its own flags and
built its own keyword soup, so the surfaces drifted (different
``--bmax`` wiring, knobs present on one subcommand and missing on
another).  This module is the single place those flags are declared
and the single function that turns a parsed namespace into typed
:mod:`repro.api` specs:

* :func:`add_spec_arguments` registers the grid flags (``-W``,
  ``-B``, ``--bmax``, and the optimize knobs) on a subparser;
* :func:`tam_counts_from_args` / :func:`optimize_options_from_args`
  are the one resolution rule for counts and knobs;
* :func:`spec_from_args` / :func:`grid_spec_from_args` produce the
  :class:`~repro.api.specs.OptimizeSpec` / :class:`~repro.api.specs.
  GridSpec` every execution path consumes.

Because ``batch`` and ``submit`` build their grids through the same
translator, a grid run locally and the same grid submitted to a
server produce byte-identical canonical keys — which is what makes
the server's persisted memo answer either one.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Tuple, Union

from repro.api.specs import (
    DEFAULT_MAX_TAMS,
    OPTION_DEFAULTS,
    GridSpec,
    OptimizeSpec,
)

#: ``--prune`` choice → the spec's ``prune`` value.
PRUNE_MODES: Dict[str, bool] = {
    "abort": True,
    "none": False,
}


def _point_timeout(value: str) -> float:
    """Parse ``--point-timeout``: a positive number of seconds."""
    try:
        timeout = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {value!r}"
        ) from None
    if timeout <= 0:
        raise argparse.ArgumentTypeError(
            f"point timeout must be positive, got {value!r}"
        )
    return timeout


def _shard_policy(value: str) -> Union[int, str]:
    """Parse ``--shard``: 'auto', 'off' (→ 0), or a shard count."""
    if value == "auto":
        return "auto"
    if value == "off":
        return 0
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto', 'off' or an integer, got {value!r}"
        ) from None


def add_spec_arguments(
    parser: argparse.ArgumentParser,
    multi_width: bool = False,
    bmax_default: int = DEFAULT_MAX_TAMS,
    knobs: bool = True,
) -> None:
    """Register the shared grid/spec flags on ``parser``.

    ``multi_width`` switches ``-W`` between one budget (``width``,
    the single-point subcommands) and a sweep list (``widths``).
    ``knobs`` adds the optimize knobs (``--no-polish``, ``--prune``);
    subcommands whose backend ignores them (``exhaustive``) leave
    them off.
    """
    if multi_width:
        parser.add_argument(
            "-W", "--widths", type=int, nargs="+", required=True,
            help="TAM widths to sweep",
        )
        parser.add_argument(
            "--shard", type=_shard_policy, default=None,
            metavar="{auto,off,N}",
            help="intra-job partition-sweep sharding: 'auto' (split "
                 "a job across idle pool workers when its partition "
                 "space is large), 'off', or an explicit shard "
                 "count.  Results are identical at any setting; "
                 "unset keeps the executing runner's policy",
        )
        parser.add_argument(
            "--point-timeout", type=_point_timeout, default=None,
            metavar="SECONDS",
            help="per-point wall-clock deadline (pool mode): a point "
                 "that exceeds it is recorded/raised as a "
                 "DeadlineError.  An execution hint like --shard — "
                 "excluded from the grid's canonical key",
        )
    else:
        parser.add_argument(
            "-W", "--width", type=int, required=True,
            help="total TAM width",
        )
    parser.add_argument(
        "-B", "--num-tams", type=int, default=None,
        help="fix the number of TAMs (P_PAW)",
    )
    parser.add_argument(
        "--bmax", type=int, default=bmax_default,
        help=f"max TAMs for the P_NPAW sweep "
             f"(default {bmax_default})",
    )
    if knobs:
        parser.add_argument(
            "--no-polish", action="store_true",
            help="skip the exact final optimization step",
        )
        parser.add_argument(
            "--prune", choices=tuple(PRUNE_MODES), default=None,
            help="partition-sweep pruning: the paper's "
                 "best-known-time abort, with the kernel's "
                 "outcome-identical lower-bound skip in front of it "
                 "(default), or none (ablation)",
        )


def add_search_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the anytime-search knobs (``repro-tam search``).

    Defaults come from :data:`repro.api.specs.OPTION_DEFAULTS` so the
    CLI, the typed spec, and the engine resolve a search identically.
    """
    parser.add_argument(
        "--strategy", choices=("sa", "ga"),
        default=OPTION_DEFAULTS["search_strategy"],
        help="metaheuristic: simulated annealing or the "
             "steady-state genetic algorithm (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=OPTION_DEFAULTS["seed"],
        help="RNG seed — the sole source of randomness; a fixed "
             "seed is bit-identical at any worker count "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--eval-budget", type=int, default=OPTION_DEFAULTS["eval_budget"],
        help="candidate-evaluation budget, split across islands "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--target-gap", type=float, default=OPTION_DEFAULTS["target_gap"],
        help="stop early once the incumbent is within this "
             "relative gap of the lower bound (default %(default)s: "
             "only a proven optimum stops early)",
    )


def search_spec_from_args(
    args: argparse.Namespace, width: int,
) -> OptimizeSpec:
    """One search point's :class:`OptimizeSpec` at ``width``."""
    options = optimize_options_from_args(args)
    options.update(
        mode="search",
        search_strategy=args.strategy,
        seed=args.seed,
        eval_budget=args.eval_budget,
        target_gap=args.target_gap,
    )
    return OptimizeSpec.from_options(
        width,
        num_tams=tam_counts_from_args(args),
        options=options,
    )


def tam_counts_from_args(
    args: argparse.Namespace,
) -> Union[int, Tuple[int, ...]]:
    """The TAM count(s) a namespace asks for — one rule for all CLIs.

    ``-B`` wins; otherwise the P_NPAW default is the flat tuple
    ``1..bmax``.  Counts above a given point's width are skipped by
    the partition sweep, so the flat tuple matches ``co_optimize``'s
    per-width default at every budget.
    """
    if args.num_tams is not None:
        return args.num_tams
    return tuple(range(1, args.bmax + 1))


def optimize_options_from_args(
    args: argparse.Namespace,
) -> Dict[str, Any]:
    """Sparse optimize knobs from a namespace.

    Only knobs the user actually set are included; the rest keep the
    spec defaults of :data:`repro.api.specs.OPTION_DEFAULTS`.
    """
    options: Dict[str, Any] = {}
    if getattr(args, "no_polish", False):
        options["polish"] = False
    prune = getattr(args, "prune", None)
    if prune is not None:
        options["prune"] = PRUNE_MODES[prune]
    return options


def spec_from_args(
    args: argparse.Namespace, width: int,
) -> OptimizeSpec:
    """One point's :class:`OptimizeSpec` at ``width``."""
    return OptimizeSpec.from_options(
        width,
        num_tams=tam_counts_from_args(args),
        options=optimize_options_from_args(args),
    )


def grid_spec_from_args(args: argparse.Namespace) -> GridSpec:
    """The :class:`GridSpec` a ``batch``/``submit`` namespace asks for.

    Execution hints (``--shard``, ``--point-timeout``) land in the
    spec's ``runner`` mapping — serialized with the grid but excluded
    from its canonical key, so hints never split the result memo.
    """
    runner: Dict[str, Any] = {}
    shard = getattr(args, "shard", None)
    if shard is not None:
        runner["shard"] = shard
    point_timeout = getattr(args, "point_timeout", None)
    if point_timeout is not None:
        runner["point_timeout"] = point_timeout
    return GridSpec.from_axes(
        args.socs,
        args.widths,
        num_tams=tam_counts_from_args(args),
        options=optimize_options_from_args(args),
        runner=runner,
    )
