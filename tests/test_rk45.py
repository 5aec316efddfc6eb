import math

import pytest

from chemostat.rk45 import DormandPrince54


def lotka_volterra(t, y):
    return [y[0] - y[0] * y[1], y[0] * y[1] - y[1]]


class TestFirstSameAsLast:
    def test_six_calls_per_attempt(self):
        calls = []

        def f(t, y):
            calls.append(t)
            return lotka_volterra(t, y)

        stepper = DormandPrince54(f, 0.0, [2.0, 1.0], rtol=1e-8)
        assert len(calls) == 2  # the initial-step estimate; f(t0, y0) is kept
        stepper.step(20.0)
        assert len(calls) == 2 + 6 * (stepper.n_accepted + stepper.n_rejected)

        calls.clear()
        stepper = DormandPrince54(f, 0.0, [2.0, 1.0], rtol=1e-8, first_step=1.0)
        while stepper.step(20.0):
            pass
        assert stepper.n_rejected > 0  # retries reuse k1 as well
        assert len(calls) == 1 + 6 * (stepper.n_accepted + stepper.n_rejected)

    def test_in_place_edit_of_state_is_seen(self):
        # integrate() clamps negative components of stepper.y in place; the
        # next step must start from the edited state, not reuse f at the old one
        stepper = DormandPrince54(lotka_volterra, 0.0, [2.0, 1.0], rtol=1e-8)
        stepper.step(20.0)
        stepper.y[1] = 0.0
        fresh = DormandPrince54(lotka_volterra, stepper.t, list(stepper.y),
                                rtol=1e-8, first_step=stepper.h)
        assert stepper.step(20.0) and fresh.step(20.0)
        assert (stepper.t, stepper.y) == (fresh.t, fresh.y)


class TestDenseOutput:
    def test_matches_step_ends_and_exact_solution(self):
        # y = (sin t, cos t)
        stepper = DormandPrince54(lambda t, y: [y[1], -y[0]], 0.0, [0.0, 1.0],
                                  rtol=1e-6, atol=1e-9)
        worst = 0.0
        while stepper.step(10.0):
            state = stepper.dense_output()
            assert state(stepper.t_prev) == stepper.y_prev
            assert state(stepper.t) == pytest.approx(stepper.y, rel=1e-15, abs=1e-15)
            for k in range(1, 8):
                t = stepper.t_prev + (stepper.t - stepper.t_prev) * k / 8
                got = state(t)
                worst = max(worst, abs(got[0] - math.sin(t)), abs(got[1] - math.cos(t)))
        assert worst < 1e-6
