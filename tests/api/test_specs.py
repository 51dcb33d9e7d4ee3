"""Unit tests for the canonical job specs (repro.api.specs)."""

import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.api import (
    OPTION_DEFAULTS,
    GridSpec,
    OptimizeSpec,
    SPEC_SCHEMA_VERSION,
    jobs_canonical_key,
)
from repro.api.specs import SEARCH_ONLY_OPTIONS
from repro.engine.batch import BatchJob
from repro.exceptions import ConfigurationError


class TestOptimizeSpecValidation:
    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            OptimizeSpec(total_width=0)
        with pytest.raises(ConfigurationError):
            OptimizeSpec(total_width="32")

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            OptimizeSpec(total_width=8, num_tams=0)
        with pytest.raises(ConfigurationError):
            OptimizeSpec(total_width=8, num_tams=(1, 0))
        with pytest.raises(ConfigurationError):
            OptimizeSpec(total_width=8, num_tams=())

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            OptimizeSpec(total_width=8, polish_top_k=0)
        with pytest.raises(ConfigurationError):
            OptimizeSpec(total_width=8, exact_node_limit=0)
        with pytest.raises(ConfigurationError):
            OptimizeSpec(total_width=8, prune=3.5)

    @pytest.mark.parametrize("option", ["polish", "polish_per_tam_count"])
    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_polish_flags_are_plain_bools(self, option, value):
        with pytest.raises(ConfigurationError, match=option):
            OptimizeSpec(total_width=8, **{option: value})

    @pytest.mark.parametrize("option", ["polish_top_k", "exact_node_limit"])
    def test_count_options_reject_bools(self, option):
        # True used to pass as 1, and split the canonical key from it.
        with pytest.raises(ConfigurationError, match=option):
            OptimizeSpec(total_width=8, **{option: True})

    def test_grid_options_are_type_checked(self):
        with pytest.raises(ConfigurationError, match="polish"):
            GridSpec.from_axes(
                ["d695"], [8], num_tams=2, options={"polish": "no"}
            )

    def test_counts_iterable_is_frozen(self):
        spec = OptimizeSpec(total_width=8, num_tams=range(1, 4))
        assert spec.num_tams == (1, 2, 3)
        assert hash(spec) == hash(
            OptimizeSpec(total_width=8, num_tams=(1, 2, 3))
        )

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="frobnicate"):
            OptimizeSpec.from_options(8, options={"frobnicate": 1})

    @pytest.mark.parametrize("prune", ["lb", None])
    def test_prune_is_a_plain_bool(self, prune):
        assert OptimizeSpec(total_width=8).prune is True
        with pytest.raises(ConfigurationError, match="prune"):
            OptimizeSpec(total_width=8, prune=prune)

    def test_sweep_engine_is_an_unknown_option(self):
        with pytest.raises(ConfigurationError, match="sweep_engine"):
            OptimizeSpec.from_options(
                8, options={"sweep_engine": "kernel"}
            )
        data = OptimizeSpec(total_width=8).to_dict()
        data["sweep_engine"] = "kernel"
        with pytest.raises(ConfigurationError, match="sweep_engine"):
            OptimizeSpec.from_dict(data)


class TestOneOwner:
    """The spec's fields are the one definition of the options."""

    OPTION_FIELDS = [
        spec_field for spec_field in fields(OptimizeSpec)
        if spec_field.name not in ("total_width", "num_tams")
    ]

    def test_option_defaults_are_the_field_defaults(self):
        assert OPTION_DEFAULTS == {
            spec_field.name: spec_field.default
            for spec_field in self.OPTION_FIELDS
        }
        assert list(OPTION_DEFAULTS) == [
            spec_field.name for spec_field in self.OPTION_FIELDS
        ]

    def test_search_only_options_are_marked_on_their_fields(self):
        assert SEARCH_ONLY_OPTIONS == (
            "search_strategy", "seed", "eval_budget", "target_gap",
        )

    def test_every_field_is_documented_where_it_is_declared(self):
        source = inspect.getsource(OptimizeSpec).splitlines()
        for spec_field in fields(OptimizeSpec):
            [line] = [
                index for index, text in enumerate(source)
                if text.startswith(f"    {spec_field.name}: ")
            ]
            assert source[line - 1].strip().startswith("#:"), \
                spec_field.name


class TestOptimizeSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = OptimizeSpec(
            total_width=24, num_tams=(2, 3), polish=False, prune=False,
        )
        data = spec.to_dict()
        assert data["schema"] == SPEC_SCHEMA_VERSION
        assert OptimizeSpec.from_dict(data) == spec

    def test_unknown_schema_rejected(self):
        data = OptimizeSpec(total_width=8).to_dict()
        data["schema"] = 999
        with pytest.raises(ConfigurationError, match="schema"):
            OptimizeSpec.from_dict(data)

    def test_unknown_field_rejected(self):
        data = OptimizeSpec(total_width=8).to_dict()
        data["mystery"] = True
        with pytest.raises(ConfigurationError, match="mystery"):
            OptimizeSpec.from_dict(data)

    def test_engine_options_are_sparse(self):
        assert OptimizeSpec(total_width=8).engine_options() == {}
        assert OptimizeSpec(
            total_width=8, polish=False
        ).engine_options() == {"polish": False}

    def test_from_options_inverts_engine_options(self):
        spec = OptimizeSpec(
            total_width=16, num_tams=2, polish_top_k=3, prune=False,
        )
        rebuilt = OptimizeSpec.from_options(
            spec.total_width,
            num_tams=spec.num_tams,
            options=spec.engine_options(),
        )
        assert rebuilt == spec


class TestGridSpec:
    def test_from_axes_orders_soc_major_width_fastest(self):
        grid = GridSpec.from_axes(["d695", "p21241"], [8, 12],
                                  num_tams=2)
        jobs = grid.jobs()
        assert [(j.soc.name, j.total_width) for j in jobs] == [
            ("d695", 8), ("d695", 12), ("p21241", 8), ("p21241", 12),
        ]
        assert grid.widths == (8, 12)

    def test_needs_socs_and_points(self):
        with pytest.raises(ConfigurationError):
            GridSpec(socs=(), points=(OptimizeSpec(total_width=8),))
        with pytest.raises(ConfigurationError):
            GridSpec(socs=("d695",), points=())
        with pytest.raises(ConfigurationError):
            GridSpec.from_axes(["d695"], [])

    def test_dict_round_trip(self):
        grid = GridSpec.from_axes(
            ["d695"], [8, 16], num_tams=(1, 2),
            options={"polish": False}, runner={"jobs": 4},
        )
        rebuilt = GridSpec.from_dict(grid.to_dict())
        assert rebuilt == grid
        assert rebuilt.runner_options() == {"jobs": 4}

    def test_unknown_field_rejected(self):
        data = GridSpec.from_axes(["d695"], [8]).to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            GridSpec.from_dict(data)


class TestCanonicalKey:
    def test_key_matches_hand_built_jobs(self, d695):
        grid = GridSpec.from_axes(["d695"], [8, 12], num_tams=2)
        jobs = [BatchJob(d695, 8, 2), BatchJob(d695, 12, 2)]
        assert grid.canonical_key() == jobs_canonical_key(jobs)

    def test_key_ignores_runner_hints(self):
        base = GridSpec.from_axes(["d695"], [8], num_tams=2)
        hinted = GridSpec.from_axes(
            ["d695"], [8], num_tams=2, runner={"jobs": 16},
        )
        assert base.canonical_key() == hinted.canonical_key()

    def test_key_normalizes_scalar_and_tuple_counts(self, d695):
        assert jobs_canonical_key([BatchJob(d695, 8, 2)]) == \
            jobs_canonical_key([BatchJob(d695, 8, (2,))])

    def test_key_fills_defaulted_options(self, d695):
        sparse = jobs_canonical_key([BatchJob(d695, 8, 2)])
        explicit = jobs_canonical_key([
            BatchJob(d695, 8, 2, options={"polish": True}),
        ])
        assert sparse == explicit

    def test_key_is_content_sensitive(self, d695, p21241):
        assert jobs_canonical_key([BatchJob(d695, 8, 2)]) != \
            jobs_canonical_key([BatchJob(p21241, 8, 2)])
        assert jobs_canonical_key([BatchJob(d695, 8, 2)]) != \
            jobs_canonical_key([BatchJob(d695, 9, 2)])
        assert jobs_canonical_key([BatchJob(d695, 8, 2)]) != \
            jobs_canonical_key([
                BatchJob(d695, 8, 2, options={"polish": False}),
            ])

    def test_key_survives_spec_round_trip(self):
        grid = GridSpec.from_axes(
            ["d695", "p21241"], [8, 16], num_tams=(1, 2, 3),
            options={"prune": False},
        )
        rebuilt = GridSpec.from_dict(grid.to_dict())
        assert rebuilt.canonical_key() == grid.canonical_key()

    @pytest.mark.parametrize("grid, key", [
        (GridSpec.from_axes(["d695"], [16, 24], num_tams=2),
         "792cafa140f505f2dc7458c4"),
        (GridSpec.from_axes(
            ["d695", "p31108"], [32], num_tams=(1, 2, 3, 4),
            options={"mode": "search", "search_strategy": "ga",
                     "seed": 7, "eval_budget": 1000},
        ), "f408b4b1e49c54cfc4a67e70"),
        (GridSpec.from_axes(
            ["d695"], [8], num_tams=2,
            options={"polish": True, "target_gap": 0},
        ), "6d4d46153b0b070eb39879ae"),
    ])
    def test_keys_are_stable_across_builds(self, grid, key):
        # A persisted memo entry and a journaled key outlive the build
        # that wrote them: the hash of a fixed grid must not move.
        assert grid.canonical_key() == key

    def test_mutable_option_values_are_rejected(self, d695):
        job = BatchJob(d695, 8, 2, options={"polish": ["mutable"]})
        with pytest.raises(TypeError):
            jobs_canonical_key([job])


class TestBatchJobBridge:
    def test_from_spec_and_back(self, d695):
        spec = OptimizeSpec(total_width=12, num_tams=(1, 2),
                            polish=False)
        job = BatchJob.from_spec(d695, spec)
        assert job.total_width == 12
        assert job.num_tams == (1, 2)
        assert job.options_dict() == {"polish": False}
        assert job.spec() == spec

    def test_job_with_unknown_option_has_no_spec(self, d695):
        job = BatchJob(d695, 8, 2, options={"bogus_knob": 1})
        with pytest.raises(ConfigurationError):
            job.spec()


class TestSearchMode:
    """The v2 mode axis and its search-only options."""

    def search_spec(self, **overrides):
        options = dict(
            mode="search", search_strategy="ga", seed=11,
            eval_budget=500, target_gap=0.05,
        )
        options.update(overrides)
        return OptimizeSpec(total_width=16, **options)

    def test_search_spec_round_trips(self):
        spec = self.search_spec()
        assert OptimizeSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            OptimizeSpec(total_width=16, mode="quantum")

    @pytest.mark.parametrize("option, value", [
        ("search_strategy", "ga"),
        ("seed", 3),
        ("eval_budget", 100),
        ("target_gap", 0.1),
    ])
    def test_search_options_rejected_under_exact(self, option, value):
        with pytest.raises(ConfigurationError, match=option):
            OptimizeSpec(total_width=16, **{option: value})

    def test_search_knob_validation(self):
        with pytest.raises(ConfigurationError, match="seed"):
            self.search_spec(seed=-1)
        with pytest.raises(ConfigurationError, match="eval_budget"):
            self.search_spec(eval_budget=0)
        with pytest.raises(ConfigurationError, match="target_gap"):
            self.search_spec(target_gap=-0.5)

    @staticmethod
    def key(point):
        return GridSpec(socs=("d695",), points=(point,)).canonical_key()

    def test_seed_splits_the_canonical_key(self):
        # The seed is result-defining for a search, so two seeds must
        # never share a memo entry.
        assert self.key(self.search_spec(seed=1)) != \
            self.key(self.search_spec(seed=2))

    def test_mode_splits_the_canonical_key(self):
        exact = OptimizeSpec(total_width=16)
        search = OptimizeSpec(total_width=16, mode="search")
        assert self.key(exact) != self.key(search)


class TestDesignAppendix:
    """DESIGN.md's appendix A examples must be records this build reads."""

    DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"

    def test_a1_optimize_spec_example_parses(self):
        text = self.DESIGN.read_text(encoding="utf-8")
        section = text[text.index("### A.1"):text.index("### A.2")]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        data = json.loads(block)
        spec = OptimizeSpec.from_dict(data)
        assert spec.to_dict() == data
