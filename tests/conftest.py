"""Shared fixtures."""

import pytest

from shuffle_lab import models

from .oracles import randrange_draws


@pytest.fixture
def scripted_draws(monkeypatch):
    """Route the samplers' draws through rng.randrange, so a stand-in rng
    that has only randrange (ScriptedRNG) drives the shipped sampler
    bodies; everything after the draws runs unchanged."""
    monkeypatch.setattr(models, "_draws", randrange_draws)
