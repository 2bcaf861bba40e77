"""NumericGuard unit behaviour: detection thresholds and rollback budget."""

import numpy as np
import pytest

from repro import obs
from repro.errors import NumericalError
from repro.nn import Adam, Linear
from repro.nn.tensor import parameter
from repro.resilience.guards import GuardPolicy, NumericGuard


class TestPolicyValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            GuardPolicy(divergence_factor=1.0)
        with pytest.raises(ValueError):
            GuardPolicy(max_rollbacks=-1)
        with pytest.raises(ValueError):
            GuardPolicy(lr_backoff=1.0)
        with pytest.raises(ValueError):
            GuardPolicy(lr_backoff=0.0)


class TestDetection:
    def test_check_loss_passes_finite_values_through(self):
        assert NumericGuard().check_loss(0.25, "here") == 0.25

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_check_loss_raises_on_nonfinite(self, bad, obs_enabled):
        with pytest.raises(NumericalError, match="non-finite loss"):
            NumericGuard().check_loss(bad, "batch 3")
        counter = obs.get_registry().get("resilience.guard.trips",
                                         kind="nonfinite_loss")
        assert counter is not None and counter.value == 1

    def test_check_gradients_raises_on_nan(self, obs_enabled):
        params = [parameter(np.zeros(3)), parameter(np.zeros(2))]
        params[0].grad = np.zeros(3)
        params[1].grad = np.array([0.0, np.nan])
        with pytest.raises(NumericalError, match="parameter #1"):
            NumericGuard().check_gradients(params, "batch 0")
        counter = obs.get_registry().get("resilience.guard.trips",
                                         kind="nonfinite_grad")
        assert counter is not None and counter.value == 1

    def test_check_gradients_can_be_disabled(self):
        guard = NumericGuard(GuardPolicy(check_gradients=False))
        bad = parameter(np.zeros(1))
        bad.grad = np.array([np.nan])
        guard.check_gradients([bad], "anywhere")  # must not raise

    def test_check_gradients_skips_unset_grads(self):
        NumericGuard().check_gradients([parameter(np.zeros(2))], "x")

    def test_divergence_bound(self, obs_enabled):
        guard = NumericGuard(GuardPolicy(divergence_factor=2.0))
        guard.check_epoch(1.0, epoch=0)
        guard.check_epoch(1.9, epoch=1)   # under 2 x best: fine
        guard.check_epoch(0.5, epoch=2)   # new best
        with pytest.raises(NumericalError, match="divergence"):
            guard.check_epoch(1.1, epoch=3)
        counter = obs.get_registry().get("resilience.guard.trips",
                                         kind="divergence")
        assert counter is not None and counter.value == 1

    def test_first_epoch_never_diverges(self):
        NumericGuard(GuardPolicy(divergence_factor=1.5)).check_epoch(1e9, 0)

    def test_zero_best_loss_bounds_nothing(self):
        # A hinge loss reaches exactly 0 when every triplet clears the
        # margin; a later tiny positive loss is not divergence.
        guard = NumericGuard(GuardPolicy(divergence_factor=2.0))
        guard.check_epoch(0.0, epoch=0)
        guard.check_epoch(1e-9, epoch=1)
        guard.check_epoch(0.5, epoch=2)
        assert guard.best_loss == 0.0


class TestRecovery:
    def test_rollback_budget(self, obs_enabled):
        guard = NumericGuard(GuardPolicy(max_rollbacks=2))
        assert guard.admit_rollback()
        assert guard.admit_rollback()
        assert not guard.admit_rollback()
        registry = obs.get_registry()
        assert registry.get("resilience.guard.rollbacks").value == 2
        assert registry.get("resilience.guard.retries_exhausted").value == 1

    def test_decay_lr_halves_and_floors(self):
        guard = NumericGuard(GuardPolicy(lr_backoff=0.5, min_lr=3e-4))
        optimizer = Adam(Linear(2, 2, rng=0).parameters(), lr=1e-3)
        assert guard.decay_lr(optimizer) == pytest.approx(5e-4)
        assert guard.decay_lr(optimizer) == pytest.approx(3e-4)
        assert guard.decay_lr(optimizer) == pytest.approx(3e-4)
