"""Shared fixtures; the random family itself lives in fgzeta.families."""

import random

import pytest

from fgzeta.families import random_element, random_matrix


@pytest.fixture
def rng():
    return random.Random(20260808)
