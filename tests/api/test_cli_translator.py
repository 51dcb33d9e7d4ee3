"""The shared argparse→spec translator keeps every CLI surface aligned."""

import pytest

from repro.api import GridSpec, OptimizeSpec
from repro.api.cli import grid_spec_from_args, spec_from_args
from repro.cli import build_parser
from repro.exceptions import ConfigurationError


def parse(argv):
    return build_parser().parse_args(argv)


class TestSurfacesAgree:
    def test_batch_and_submit_build_identical_grids(self):
        batch = parse(["batch", "d695", "-W", "8", "12", "-B", "2"])
        submit = parse(["submit", "d695", "-W", "8", "12", "-B", "2"])
        assert grid_spec_from_args(batch) == grid_spec_from_args(submit)

    def test_batch_and_submit_share_canonical_key_with_defaults(self):
        batch = parse(["batch", "d695", "-W", "8"])
        submit = parse(["submit", "d695", "-W", "8"])
        assert grid_spec_from_args(batch).canonical_key() == \
            grid_spec_from_args(submit).canonical_key()

    def test_cooptimize_point_matches_batch_point(self):
        coopt = parse(["cooptimize", "d695", "-W", "16", "--bmax", "4"])
        batch = parse(["batch", "d695", "-W", "16", "--bmax", "4"])
        assert spec_from_args(coopt, coopt.width) == \
            grid_spec_from_args(batch).points[0]

    def test_knob_flags_reach_the_spec(self):
        args = parse([
            "batch", "d695", "-W", "8", "--no-polish", "--prune", "none",
        ])
        point = grid_spec_from_args(args).points[0]
        assert point.polish is False
        assert point.prune is False

    def test_explicit_prune_abort_survives_to_the_engine(self):
        """`--prune abort` through batch/submit is the default spec:
        the same canonical key as leaving the flag unset."""
        args = parse(["batch", "d695", "-W", "8", "--prune", "abort"])
        point = grid_spec_from_args(args).points[0]
        assert point.prune is True
        assert point.engine_options() == {}
        unset = parse(["batch", "d695", "-W", "8"])
        assert grid_spec_from_args(args).canonical_key() == \
            grid_spec_from_args(unset).canonical_key()

    def test_unset_prune_leaves_surface_defaults(self):
        args = parse(["batch", "d695", "-W", "8"])
        point = grid_spec_from_args(args).points[0]
        assert point.prune is True
        assert point.engine_options() == {}

    def test_lb_is_no_longer_a_prune_choice(self):
        with pytest.raises(SystemExit):
            parse(["batch", "d695", "-W", "8", "--prune", "lb"])

    def test_default_counts_are_flat_one_to_bmax(self):
        args = parse(["cooptimize", "d695", "-W", "16", "--bmax", "3"])
        assert spec_from_args(args, 16).num_tams == (1, 2, 3)

    def test_fixed_count_wins_over_bmax(self):
        args = parse(["batch", "d695", "-W", "8", "-B", "2",
                      "--bmax", "7"])
        assert grid_spec_from_args(args).points[0].num_tams == 2

    def test_exhaustive_shares_the_flag_surface(self):
        args = parse(["exhaustive", "d695", "-W", "8"])
        assert args.bmax == 2  # its historical default, via the
        assert args.num_tams is None  # same shared registration

    def test_translator_output_is_canonical_api_type(self):
        args = parse(["batch", "d695", "-W", "8"])
        grid = grid_spec_from_args(args)
        assert isinstance(grid, GridSpec)
        assert all(isinstance(p, OptimizeSpec) for p in grid.points)


class TestTranslatorValidation:
    def test_bad_width_is_a_configuration_error(self):
        args = parse(["batch", "d695", "-W", "0"])
        with pytest.raises(ConfigurationError):
            grid_spec_from_args(args)
