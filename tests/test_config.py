import pytest

from torsionlab.config import ENV_VAR, active_profile
from torsionlab.errors import ValidationError


def test_default_profile(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    profile = active_profile()
    assert profile.name == "default"
    assert profile.degenerate_triad_floor == 1e-12


def test_strict_profile(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "strict")
    profile = active_profile()
    assert profile.name == "strict"
    assert profile.degenerate_triad_floor > 1e-12


def test_unknown_profile_rejected(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "sloppy")
    with pytest.raises(ValidationError):
        active_profile()


def test_profile_feeds_degeneracy_floor(monkeypatch):
    # the floor is consulted at evaluation time, so the env var acts
    # immediately on an already-built chart
    import numpy as np

    from torsionlab.charts import Chart
    from torsionlab.errors import DegenerateTriadError

    nearly_flat = Chart(dim=2, kind="triad", exprs=["1e-11", "0", "0", "1"])
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert np.allclose(nearly_flat.triad([0.0, 0.0]), [[1e-11, 0.0], [0.0, 1.0]])
    monkeypatch.setenv(ENV_VAR, "strict")
    with pytest.raises(DegenerateTriadError):
        nearly_flat.triad([0.0, 0.0])
