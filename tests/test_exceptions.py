"""Unit tests for the exception hierarchy."""

import pytest

from repro.exceptions import (
    ConfigurationError,
    InfeasibleError,
    ParseError,
    ReproError,
    ValidationError,
)


def test_all_derive_from_repro_error():
    for exc_type in (ValidationError, ParseError, InfeasibleError,
                     ConfigurationError):
        assert issubclass(exc_type, ReproError)


def test_parse_error_with_line_number():
    error = ParseError("bad token", line_number=7)
    assert error.line_number == 7
    assert "line 7" in str(error)
    assert "bad token" in str(error)


def test_parse_error_without_line_number():
    error = ParseError("general failure")
    assert error.line_number is None
    assert str(error) == "general failure"


def test_catching_base_catches_all():
    with pytest.raises(ReproError):
        raise ValidationError("x")
    with pytest.raises(ReproError):
        raise ParseError("y", 1)
