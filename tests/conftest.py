import numpy as np
import pytest

from rsl import autodiff as ad
from rsl import train as T
from rsl.data import SyntheticConfig, generate_synthetic_climate, variable_set
from rsl.grid import make_grid
from rsl.models import model_spec


@pytest.fixture(scope="session")
def small_grid():
    return make_grid(32, 16)


@pytest.fixture(scope="session")
def small_store(tmp_path_factory, small_grid):
    """3 synthetic years on the 32x16 grid: 2 train + 1 validation."""
    out = tmp_path_factory.mktemp("data") / "store3y"
    return generate_synthetic_climate(
        SyntheticConfig(seed=1234, years=3, grid=small_grid), out)


@pytest.fixture(scope="session")
def micro_store(tmp_path_factory):
    """1 synthetic year on the 16x8 grid with 3 prognostic variables."""
    out = tmp_path_factory.mktemp("micro") / "store"
    return generate_synthetic_climate(
        SyntheticConfig(seed=5, years=1, grid=make_grid(16, 8),
                        variable_set=variable_set("custom", 3)), out)


@pytest.fixture
def scripted_train(micro_store, monkeypatch):
    """run(val_losses, fail_at=None) -> (state, record, held): train() of a
    1-layer sfno on the micro store for len(val_losses) epochs, with epoch e's
    validation loss scripted to val_losses[e - 1] and, if given, the training
    loss of batch b of epoch e made NaN for fail_at=(e, b). held[e - 1] is a
    copy of the weights that epoch e's validation saw."""
    real = T.multi_step_loss

    def run(val_losses, fail_at=None):
        held, batch = [], [0]

        def loss(state, x_seq, f_seq, c, weights, step_terms=None):
            if step_terms is not None:      # validation: one 256-sample chunk an epoch
                held.append({k: p.data.copy() for k, p in state.params.items()})
                batch[0] = 0
                step_terms.append(val_losses[len(held) - 1])
                return ad.Tensor(np.float32(step_terms[0]))
            batch[0] += 1
            if (len(held) + 1, batch[0] - 1) == fail_at:
                return ad.Tensor(np.float32(np.nan))
            return real(state, x_seq, f_seq, c, weights)

        monkeypatch.setattr(T, "multi_step_loss", loss)
        cfg = T.TrainConfig(model=model_spec("sfno", 1, 8, 3), m_steps=1, seed=597,
                            variable_set="custom:3", train_start="2006-01-01",
                            train_end="2006-02-28", val_start="2006-11-01",
                            val_end="2006-11-30", batch_size=64, epochs=len(val_losses))
        state, record, _ = T.train(cfg, micro_store)
        return state, record, held
    return run


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
