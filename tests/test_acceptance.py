"""Acceptance gate: the thirteen end-to-end criteria, one pass/fail line each.

The criteria are computed once by gapspec.verify.run_acceptance (the same
routine behind `gapspec verify`) and asserted individually here so the pytest
report shows one line per criterion.
"""

import warnings

import pytest

from gapspec.verify import _spectrum, run_acceptance

CRITERIA = (
    "quadrature_convergence",
    "airy_eigenvalue_law",
    "bessel_eigenvalue_law",
    "sine_eigenvalue_law",
    "airy_transition_theorem",
    "bessel_transition_theorem",
    "gap_constants",
    "lidskii_algebra",
    "logderiv_expansions",
    "reciprocity_identity",
    "counting_normalization",
    "convolution_identity",
    "commuting_residual",
)


@pytest.fixture(scope="module")
def results():
    # as `python -W error -m gapspec.cli verify`: no row reads a factor
    # below the resolution floor, or warns for any other reason
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return {name: (ok, detail) for name, ok, detail in run_acceptance()}


def test_all_criteria_reported(results):
    assert tuple(results) == CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(results, criterion):
    ok, detail = results[criterion]
    assert ok, f"{criterion}: {detail}"


def test_rows_identical_across_runs(results):
    # the rows are the default `gapspec verify` output, which must not
    # change between runs of one tree; the second run starts cold
    _spectrum.cache_clear()
    assert {name: (ok, detail) for name, ok, detail in run_acceptance()} == results
