import numpy as np
import pytest

from mdee.datagen import generate, target_eval


class TestTargetEval:
    def test_sinc_continuous_limit(self):
        assert target_eval("sinc", 0.0) == 1.0

    def test_sinc_zero_crossing(self):
        assert target_eval("sinc", np.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_sinc_formula(self):
        x = 0.37
        assert target_eval("sinc", x) == pytest.approx(np.sin(4 * x) / (4 * x))

    def test_step_strict(self):
        assert target_eval("step", 0.0) == 0.0
        assert target_eval("step", 0.5) == 1.0
        assert target_eval("step", -1e-12) == 0.0

    def test_vectorized(self):
        out = target_eval("step", np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0])

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            target_eval("ramp", 1.0)


def draw_args(**kwargs):
    """The keyword arguments of a `generate` call."""
    base = dict(
        target="sinc",
        n=10,
        n_prime=30,
        n_test=20,
        noise_var=0.1,
        covariate_var=1.0,
        seed=42,
    )
    base.update(kwargs)
    return base


class TestGenerate:
    def test_shapes(self):
        train, unlabeled, test = generate(**draw_args())
        assert train.X.shape == (10, 1) and train.y.shape == (10,)
        assert unlabeled.X.shape == (30, 1)
        assert test.X.shape == (20, 1)

    def test_noiseless_responses_exact(self):
        _, _, test = generate(**draw_args(noise_var=0.0, target="step"))
        np.testing.assert_array_equal(test.y, target_eval("step", test.X[:, 0]))

    def test_streams_disjoint(self):
        train, unlabeled, test = generate(**draw_args())
        assert not np.isin(train.X, unlabeled.X).any()
        assert not np.isin(train.X, test.X).any()

    def test_reproducible(self):
        a = generate(**draw_args())
        b = generate(**draw_args())
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[2].y, b[2].y)

    def test_test_stream_extends(self):
        short = generate(**draw_args(n_test=15))[2]
        long = generate(**draw_args(n_test=200))[2]
        np.testing.assert_array_equal(long.X[:15], short.X)
        np.testing.assert_array_equal(long.y[:15], short.y)

    def test_unlabeled_stream_extends(self):
        short = generate(**draw_args(n_prime=10))[1]
        long = generate(**draw_args(n_prime=90))[1]
        np.testing.assert_array_equal(long.X[:10], short.X)

    def test_covariate_variance_lln(self):
        _, unlabeled, _ = generate(**draw_args(n_prime=1_000_000, covariate_var=2.5))
        assert unlabeled.X.var() == pytest.approx(2.5, rel=0.01)

    def test_noise_variance_lln(self):
        cfg = draw_args(n_test=1_000_000, noise_var=0.3, target="sinc")
        _, _, test = generate(**cfg)
        resid = test.y - target_eval("sinc", test.X[:, 0])
        assert resid.var() == pytest.approx(0.3, rel=0.01)

    def test_step_mean_half(self):
        cfg = draw_args(n_test=100_000, noise_var=0.0, target="step")
        _, _, test = generate(**cfg)
        se = 0.5 / np.sqrt(test.n)
        assert abs(test.y.mean() - 0.5) <= 3 * se
