"""One reading of a point set, ``targets._points``, at every consumer.

A flat ``(n,)`` array is n 1-D points: each consumer gives it what it gives
the ``(n, 1)`` column, bit for bit.  Any other rank, or a width other than
the consumer's dimension, raises ``ValueError`` naming the expected shape
and the given one.
"""

import dataclasses
import re
from functools import partial

import numpy as np
import pytest

from mcmclab.diagnostics import (
    HistogramDensity,
    autocorrelation,
    autocovariance,
    chain_ess,
    evidence_from_chain,
    histogram_density,
    integrated_autocorr_time,
    per_coordinate_tau,
)
from mcmclab.ensemble import ensemble_covariance
from mcmclab.importance import (
    DiagonalGaussianProposal,
    UniformBoxProposal,
    WeightedSamples,
    importance_weights,
)
from mcmclab.mh import Chain
from mcmclab.targets import (
    DiagonalGaussianTarget,
    IsotropicGaussianTarget,
    NoisyMeanModel,
    TargetDensity,
    _log_densities,
    _points,
)

N = 150


def _ar1(n, d, seed):
    """An ``(n, d)`` AR(1) path with coefficient 0.6: every tau is a number."""
    e = np.random.default_rng(seed).standard_normal((n, d))
    for i in range(1, n):
        e[i] += 0.6 * e[i - 1]
    return e


# the flat 1-D points every consumer reads
X = _ar1(N, 1, 60)[:, 0]


def _samples(d):
    return X[:, None] if d == 1 else _ar1(N, d, 61)


def _target(d):
    return DiagonalGaussianTarget(tuple(np.linspace(-0.5, 0.5, d)), tuple(np.linspace(1.0, 2.0, d)))


def _histogram(d) -> HistogramDensity:
    return histogram_density(_samples(d), bins=4)


def _gaussian_proposal(d):
    return DiagonalGaussianProposal((0.2,) * d, (1.5,) * d)


# consumer -> (reader of a point set in d dimensions, the width it takes:
# "d" for any d, "any" for any width, 1 for 1-D points alone)
READERS = {
    "TargetDensity.log_density_many": (
        lambda d: partial(TargetDensity.log_density_many, _target(d)), "d"),
    "IsotropicGaussianTarget.log_density_many": (
        lambda d: IsotropicGaussianTarget(d).log_density_many, "d"),
    "DiagonalGaussianTarget.log_density_many": (lambda d: _target(d).log_density_many, "d"),
    "NoisyMeanModel.log_density_many": (
        lambda d: NoisyMeanModel(((0.4, 0.5), (1.1, 0.8)), 0.0, 2.0).log_density_many, 1),
    "_log_densities": (lambda d: partial(_log_densities, _target(d)), "d"),
    "UniformBoxProposal.log_pdf": (
        lambda d: UniformBoxProposal((-9.0,) * d, (9.0,) * d).log_pdf, "d"),
    "DiagonalGaussianProposal.log_pdf": (lambda d: _gaussian_proposal(d).log_pdf, "d"),
    "importance_weights": (
        lambda d: partial(importance_weights, _target(d), _gaussian_proposal(d)), "d"),
    "WeightedSamples": (lambda d: lambda x: WeightedSamples(x, np.zeros(N)), "any"),
    "Chain": (lambda d: lambda x: Chain(x, np.zeros(N, dtype=bool), np.zeros(d)), "any"),
    "HistogramDensity.bin_indices": (lambda d: _histogram(d).bin_indices, "d"),
    "HistogramDensity.density_at": (lambda d: _histogram(d).density_at, "d"),
    "HistogramDensity.log_pdf": (lambda d: _histogram(d).log_pdf, "d"),
    "histogram_density": (lambda d: partial(histogram_density, bins=4), "any"),
    "per_coordinate_tau": (lambda d: per_coordinate_tau, "any"),
    "chain_ess": (lambda d: chain_ess, "any"),
    "evidence_from_chain": (
        lambda d: lambda x: evidence_from_chain(_target(d), x, _histogram(d)), "d"),
    "ensemble_covariance": (lambda d: partial(ensemble_covariance, exclude=1), "any"),
    "integrated_autocorr_time": (lambda d: integrated_autocorr_time, 1),
    "autocorrelation": (lambda d: autocorrelation, 1),
    "autocovariance": (lambda d: partial(autocovariance, t=2), 1),
}


def _bits(result):
    """Every array, number and flag of ``result``, as shapes, dtypes and bytes."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return tuple(_bits(r) for r in result)
    a = np.asarray(result)
    return a.shape, a.dtype.str, a.tobytes()


@pytest.mark.parametrize("consumer", READERS)
def test_flat_points_read_as_the_column_bit_for_bit(consumer):
    # importance proposals, WeightedSamples, importance_weights, bin_indices,
    # Chain and the built-in targets once read a flat array as one n-D
    # point (np.atleast_2d); the series readers ravelled any shape
    read = READERS[consumer][0](1)
    assert _bits(read(X)) == _bits(read(X[:, None]))


@pytest.mark.parametrize("consumer", READERS)
def test_other_shapes_raise_naming_the_expected_one(consumer):
    make, width = READERS[consumer]
    d = 1 if width == 1 else 2
    read = make(d)
    want = {"d": d, "any": "d", 1: 1}[width]
    bad = [(N, d, 1), ()]
    if width != "any":
        bad += [(N, d + 1)]
    if width == "d":
        bad += [(N,)]
    for shape in bad:
        # a rank error may name the width as d, before the width is read;
        # evidence_from_chain reads a flat array as (n, 1) before its width
        named = want if len(shape) == 2 else f"({want}|d)"
        given = re.escape(str(shape)) if shape != (N,) else rf"\({N},( 1)?\)"
        message = rf"must have shape \([nm], {named}\), got shape {given}"
        with pytest.raises(ValueError, match=message):
            read(np.zeros(shape))


@pytest.mark.parametrize("read", [integrated_autocorr_time, autocorrelation,
                                  partial(autocovariance, t=1)],
                         ids=["integrated_autocorr_time", "autocorrelation", "autocovariance"])
def test_two_coordinate_series_raise_instead_of_interleaving(read):
    # integrated_autocorr_time ravelled an (n, 2) AR path into one series of
    # interleaved coordinates and returned tau 0.0; per coordinate it is ~4
    path = _ar1(2000, 2, 62)
    assert all(t.tau > 2.0 for t in per_coordinate_tau(path))
    with pytest.raises(ValueError, match=r"series must have shape \(n, 1\), got shape \(2000, 2\)"):
        read(path)


class TestPoints:
    def test_an_n_by_dim_float_array_is_returned_itself(self):
        x = np.zeros((4, 3))
        assert _points(x, 3) is x
        assert _points(x) is x

    def test_a_flat_array_is_n_one_dimensional_points(self):
        x = np.arange(4.0)
        got = _points(x, 1)
        assert got.shape == (4, 1) and np.shares_memory(got, x)
        np.testing.assert_array_equal(got[:, 0], x)

    def test_other_inputs_are_converted_to_float(self):
        got = _points([[1, 2], [3, 4]], 2)
        assert got.dtype == float and got.shape == (2, 2)
        assert _points(np.ones((2, 2), dtype=np.float32), 2).dtype == float

    @pytest.mark.parametrize("x, dim, want, given", [
        (0.5, None, "d", r"\(\)"),
        (np.zeros((2, 2, 2)), None, "d", r"\(2, 2, 2\)"),
        (np.zeros((3, 5)), 2, 2, r"\(3, 5\)"),
        (np.zeros(3), 2, 2, r"\(3,\)"),
    ])
    def test_other_shapes_raise_naming_both(self, x, dim, want, given):
        with pytest.raises(ValueError, match=rf"^points must have shape \(n, {want}\), got shape {given}$"):
            _points(x, dim)

    def test_the_message_takes_the_consumer_s_names(self):
        with pytest.raises(ValueError, match=r"^walkers must have shape \(m, 3\), got shape \(4, 2\)$"):
            _points(np.zeros((4, 2)), 3, "walkers", "m")
