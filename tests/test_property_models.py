"""Property-based tests on distributions and the analytical models."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import (
    ExponentialDelay,
    LogNormalDelay,
    UniformDelay,
    predict_wa_conventional,
    separation_breakdown,
)
from repro.core import InOrderCurve, ZetaModel
from repro.stats import ks_two_sample, sliding_mean

lognormal_params = st.tuples(
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.2, max_value=2.5),
)


@settings(max_examples=30, deadline=None)
@given(params=lognormal_params, x=st.floats(min_value=0.0, max_value=1e7))
def test_cdf_bounded_everywhere(params, x):
    mu, sigma = params
    value = float(LogNormalDelay(mu, sigma).cdf(x))
    assert 0.0 <= value <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    params=lognormal_params,
    q=st.floats(min_value=0.001, max_value=0.999),
)
def test_quantile_inverts_cdf(params, q):
    mu, sigma = params
    dist = LogNormalDelay(mu, sigma)
    assert float(dist.cdf(dist.quantile(q))) == np.float64(q).item() or abs(
        float(dist.cdf(dist.quantile(q))) - q
    ) < 1e-6


@settings(max_examples=20, deadline=None)
@given(
    mean=st.floats(min_value=1.0, max_value=500.0),
    dt=st.floats(min_value=1.0, max_value=100.0),
    n_lo=st.integers(min_value=1, max_value=64),
    n_delta=st.integers(min_value=1, max_value=64),
)
def test_zeta_monotone_in_buffer_size(mean, dt, n_lo, n_delta):
    model = ZetaModel(ExponentialDelay(mean), dt)
    assert model.zeta(n_lo + n_delta) >= model.zeta(n_lo) - 1e-9


@settings(max_examples=20, deadline=None)
@given(
    mean=st.floats(min_value=1.0, max_value=500.0),
    dt=st.floats(min_value=1.0, max_value=100.0),
    in_order=st.floats(min_value=0.5, max_value=500.0),
)
def test_in_order_count_bounded_by_arrivals(mean, dt, in_order):
    # X(alpha) <= alpha, read through Eq. 1's inverse.
    curve = InOrderCurve(ExponentialDelay(mean), dt)
    assert curve.arrivals_for_in_order(in_order) >= in_order


@settings(max_examples=15, deadline=None)
@given(
    mean=st.floats(min_value=1.0, max_value=300.0),
    dt=st.floats(min_value=5.0, max_value=100.0),
    budget=st.integers(min_value=4, max_value=128),
)
def test_wa_models_at_least_one(mean, dt, budget):
    dist = ExponentialDelay(mean)
    assert predict_wa_conventional(dist, dt, budget) >= 1.0 - 1e-9
    n_seq = budget // 2
    assert separation_breakdown(dist, dt, budget, n_seq).wa >= 1.0 - 1e-9


@settings(max_examples=15, deadline=None)
@given(
    high=st.floats(min_value=1.0, max_value=30.0),
    dt=st.floats(min_value=50.0, max_value=200.0),
    budget=st.integers(min_value=4, max_value=64),
)
def test_bounded_subinterval_delays_are_free(high, dt, budget):
    """Delays bounded below dt can never create rewrites."""
    dist = UniformDelay(0.0, min(high, dt * 0.9))
    assert predict_wa_conventional(dist, dt, budget) == 1.0
    assert separation_breakdown(dist, dt, budget, budget // 2).wa == 1.0


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    window=st.integers(min_value=1, max_value=50),
)
def test_sliding_mean_stays_within_range(values, window):
    data = np.asarray(values)
    out = sliding_mean(data, window)
    assert out.size == data.size
    assert np.all(out >= data.min() - 1e-9)
    assert np.all(out <= data.max() + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=2,
        max_size=300,
    ),
    b=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=2,
        max_size=300,
    ),
)
def test_ks_statistic_properties(a, b):
    forward = ks_two_sample(np.asarray(a), np.asarray(b))
    backward = ks_two_sample(np.asarray(b), np.asarray(a))
    assert 0.0 <= forward.statistic <= 1.0
    assert 0.0 <= forward.pvalue <= 1.0
    assert forward.statistic == backward.statistic
