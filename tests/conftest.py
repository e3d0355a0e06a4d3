from __future__ import annotations

import signal
from pathlib import Path

import pytest

from regimpute.gazetteer import build
from regimpute.synth import SynthConfig, synth, synth_world

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "regimpute" / "data"


@pytest.fixture(scope="session")
def demo_lexicon_path() -> Path:
    return DATA_DIR / "demo_lexicon.tsv"


@pytest.fixture(scope="session")
def demo_gazetteer_path() -> Path:
    return DATA_DIR / "demo_gazetteer.tsv"


@pytest.fixture(scope="session")
def demo_lexicon(demo_lexicon_path):
    from regimpute.segmenter import Lexicon

    return Lexicon.from_tsv(demo_lexicon_path)


@pytest.fixture(scope="session")
def small_config() -> SynthConfig:
    return SynthConfig(n=2000, seed=11)


@pytest.fixture(scope="session")
def small_world(small_config):
    return synth_world(small_config)


@pytest.fixture(scope="session")
def small_tree(small_world):
    return build(small_world.gazetteer)


@pytest.fixture()
def small_corpus(small_config):
    # Fresh records each test; imputation mutates them.
    return synth(small_config)


@pytest.fixture()
def deadline():
    """Fail a test that blocks for 30 s, instead of hanging the run."""
    def expired(signum, frame):
        raise TimeoutError("blocked for 30 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
