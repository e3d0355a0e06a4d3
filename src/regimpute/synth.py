"""Synthetic corpus generator with ground truth, for desk-scale evaluation.

The generator builds a self-consistent world from a seed: a four-level
place hierarchy with postcodes (street names deliberately recur across
localities, so street-only addresses are ambiguous), a lexicon whose words
are all distinct three-letter tokens (which makes forward maximum matching
recover every token exactly), and per-category feature-word pools. Record
names are city noun + feature words + company suffix, so the category is
recoverable from the name and the city from any field that carries it.

Masking then removes field values at configured rates and an ambiguity
rate strips the AD prefix from addresses, with every removed value kept in
the GroundTruth sidecar. SynthConfig holds what a run varies: the record
count and seed, the masking rates and the world's shape; the lexicon seed,
the missing-name rate and the shared-word and suffix pools are fixed.
"""

from __future__ import annotations

import random
import string
from array import array
from dataclasses import dataclass, field
from typing import Sequence

from .categories import CATEGORIES
from .gazetteer import PostcodeEntry
from .records import EnterpriseRecord, GroundTruth
from .segmenter import Lexicon
from .vectorizer import count_rows

_WORD_LEN = 3
_LEXICON_SEED = 101
_MISSING_NAME = 0.0003
_SHARED_WORDS = 8  # feature words any category's names may carry
_SUFFIXES = 4  # company suffixes
_SHARED_WORD_RATE = 0.4  # share of names with one shared word


@dataclass(frozen=True)
class SynthConfig:
    n: int
    seed: int = 7
    # Per-field missing rates; defaults model the missingness profile of
    # a large real registration database.
    missing_category: float = 0.4364
    missing_address: float = 0.0019
    missing_postcode: float = 0.2575
    missing_data_source: float = 0.3106
    # Fraction of present addresses stripped to street-only form.
    ambiguity: float = 0.30
    provinces: int = 8
    cities_per_province: int = 4
    counties_per_city: int = 3
    streets_per_county: int = 5
    street_pool: int = 60
    words_per_category: int = 12

    def check(self) -> None:
        rates = {
            "missing_category": self.missing_category,
            "missing_address": self.missing_address,
            "missing_postcode": self.missing_postcode,
            "missing_data_source": self.missing_data_source,
            "ambiguity": self.ambiguity,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.street_pool < self.streets_per_county:
            raise ValueError("street_pool smaller than streets_per_county")


@dataclass
class SynthWorld:
    """Everything derived from the lexicon seed and the shape parameters."""

    lexicon: Lexicon
    gazetteer: list[PostcodeEntry]
    leaves: list[tuple[str, str, str, str, str]]  # province..street, postcode
    category_words: dict[str, list[str]]
    shared_pool: list[str]
    suffix_pool: list[str]
    ad_prefixes: list[str] = field(default_factory=list)


def _word_factory(rng: random.Random):
    seen: set[str] = set()

    def make() -> str:
        while True:
            word = "".join(rng.choice(string.ascii_lowercase) for _ in range(_WORD_LEN))
            if word not in seen:
                seen.add(word)
                return word

    return make


def synth_world(config: SynthConfig) -> SynthWorld:
    config.check()
    rng = random.Random(_LEXICON_SEED)
    make = _word_factory(rng)

    entries: dict[str, str] = {}
    leaves = []
    gazetteer = []
    prefixes = []
    street_names = [make() for _ in range(config.street_pool)]
    for street in street_names:
        entries[street] = "ns"
    postcode_serial = 0
    for _ in range(config.provinces):
        province = make()
        entries[province] = "ns"
        for _ in range(config.cities_per_province):
            city = make()
            entries[city] = "ns"
            for _ in range(config.counties_per_city):
                county = make()
                entries[county] = "ns"
                prefixes.append(f"{province}{city}{county}")
                for street in rng.sample(street_names, config.streets_per_county):
                    postcode = f"{110000 + 13 * postcode_serial:06d}"
                    postcode_serial += 1
                    leaves.append((province, city, county, street, postcode))
                    gazetteer.append(PostcodeEntry(province, city, county, street, postcode))

    tags = ("n", "v", "vn")
    category_words: dict[str, list[str]] = {}
    for symbol in CATEGORIES:
        pool = []
        for j in range(config.words_per_category):
            word = make()
            entries[word] = tags[j % len(tags)]
            pool.append(word)
        category_words[symbol] = pool
    shared_pool = []
    for _ in range(_SHARED_WORDS):
        word = make()
        entries[word] = "n"
        shared_pool.append(word)
    suffix_pool = []
    for _ in range(_SUFFIXES):
        word = make()
        entries[word] = "x"
        suffix_pool.append(word)

    return SynthWorld(
        lexicon=Lexicon(entries),
        gazetteer=gazetteer,
        leaves=leaves,
        category_words=category_words,
        shared_pool=shared_pool,
        suffix_pool=suffix_pool,
        ad_prefixes=prefixes,
    )


def synth(config: SynthConfig) -> tuple[list[EnterpriseRecord], GroundTruth]:
    """Generate records and the sidecar of removed/true values.

    Truth fields: every masked field value under its own name, the full
    address for stripped addresses, and the true AD path for every record
    under "ad" (province/city/county/street)."""
    world = synth_world(config)
    rng = random.Random(config.seed)
    records: list[EnterpriseRecord] = []
    truth = GroundTruth()

    for i in range(config.n):
        rec_id = f"E{i:07d}"
        province, city, county, street, postcode = world.leaves[rng.randrange(len(world.leaves))]
        symbol = CATEGORIES[rng.randrange(len(CATEGORIES))]
        feats = [rng.choice(world.category_words[symbol]) for _ in range(rng.randint(1, 3))]
        if rng.random() < _SHARED_WORD_RATE:
            feats.append(rng.choice(world.shared_pool))
        name = city + "".join(feats) + rng.choice(world.suffix_pool)
        number = rng.randint(1, 200)
        full_address = f"{province}{city}{county} {street}{number}"
        year = rng.randint(1960, 2015)
        data_source = f"{year}_{province}"

        truth.set(rec_id, "ad", f"{province}/{city}/{county}/{street}")
        rec = EnterpriseRecord(
            id=rec_id,
            name=name,
            category=symbol,
            address=full_address,
            postcode=postcode,
            data_source=data_source,
            reg_year=year,
        )

        if rng.random() < _MISSING_NAME:
            truth.set(rec_id, "name", name)
            rec.name = None
        if rng.random() < config.missing_category:
            truth.set(rec_id, "category", symbol)
            rec.category = None
        if rng.random() < config.missing_address:
            truth.set(rec_id, "address", full_address)
            rec.address = None
        elif rng.random() < config.ambiguity:
            truth.set(rec_id, "address", full_address)
            rec.address = f"{street}{number}"
        if rng.random() < config.missing_postcode:
            truth.set(rec_id, "postcode", postcode)
            rec.postcode = None
        if rng.random() < config.missing_data_source:
            truth.set(rec_id, "data_source", data_source)
            rec.data_source = None
            rec.reg_year = None
        records.append(rec)

    return records, truth


def synth_labeled_points(
    n: int,
    dim: int = 1024,
    n_classes: int = 16,
    entries_per_vector: int = 8,
    distinct_vectors: int | None = None,
    seed: int = 0,
    classes: Sequence[str] | None = None,
):
    """(X, labels): n bulk labeled count rows for benchmark/scalability runs.

    Each row copies one of distinct_vectors pool rows (default n // 16),
    and each pool row counts entries_per_vector random column draws. The
    matrix stores every copy, so it grows with n: about 100 MB at a
    million rows of 8 entries."""
    if classes is None:
        classes = CATEGORIES[:n_classes]
    rng = random.Random(seed)
    pool_size = min(distinct_vectors or max(1, n // 16), max(n, 1))
    pool = count_rows(
        ([rng.randrange(dim) for _ in range(entries_per_vector)] for _ in range(pool_size)), dim
    )
    labels, picks = [], array("q")  # 8-byte row numbers, not n int objects
    for _ in range(n):
        labels.append(classes[rng.randrange(len(classes))])
        picks.append(rng.randrange(pool_size))
    return pool[picks], labels
