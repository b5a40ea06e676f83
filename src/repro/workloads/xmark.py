"""XMark-like synthetic auction-site dataset (the paper's synthetic data).

The paper used the XMark benchmark generator; its experiments depend only
on document shape and on the tags in the Figure 8(a) constraint graph
(``name``, ``emailaddress``, ``income``, ``creditcard``, ``address``,
``profile``, ``age``).  This generator reproduces that shape with a seeded
deterministic RNG: a ``site`` with ``people/person`` records carrying
exactly those fields plus auction noise (``open_auctions``), with skewed
value distributions so OPESS has something to flatten.
"""

from __future__ import annotations

from repro.core.constraints import SecurityConstraint, parse_constraints
from repro.workloads.rng import WorkloadRandom
from repro.xmldb.builder import TreeBuilder
from repro.xmldb.node import Document

#: Association SCs matching the Figure 8(a) constraint-graph shape: every
#: edge touches ``name`` or ``creditcard``, so the optimal cover is
#: {name, creditcard} — the cover the paper reports for its opt scheme.
XMARK_CONSTRAINTS = [
    "//person:(/name, /creditcard)",
    "//person:(/creditcard, //income)",
    "//person:(/name, /address)",
    "//person:(/name, //age)",
    "//person:(/emailaddress, /creditcard)",
]

_FIRST_NAMES = [
    "Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi",
    "Ivan", "Judy", "Mallory", "Niaj", "Olivia", "Peggy", "Rupert", "Sybil",
]
_LAST_NAMES = [
    "Anders", "Baker", "Chen", "Diaz", "Engel", "Fox", "Gupta", "Hughes",
    "Ito", "Jones", "Khan", "Lopez", "Meyer", "Novak", "Okafor", "Park",
]
_CITIES = [
    "Seoul", "Vancouver", "Lisbon", "Osaka", "Nairobi", "Lima",
    "Tampere", "Graz",
]
_COUNTRIES = ["KR", "CA", "PT", "JP", "KE", "PE", "FI", "AT"]
_INTERESTS = ["sports", "music", "books", "travel", "cooking", "gaming"]


def build_xmark_database(
    person_count: int = 200, seed: int = 1
) -> Document:
    """Generate a deterministic XMark-like document.

    ``person_count`` scales the document (~17 nodes per person plus
    auction noise); the same (count, seed) pair always yields the same
    tree.
    """
    rng = WorkloadRandom(
        seed.to_bytes(8, "big").rjust(16, b"\x00"), "xmark"
    )
    builder = TreeBuilder("site")
    with builder.element("people"):
        for index in range(person_count):
            _add_person(builder, rng, index)
    with builder.element("open_auctions"):
        for index in range(max(1, person_count // 4)):
            with builder.element("auction"):
                builder.leaf("itemref", f"item{rng.randint(0, person_count)}")
                builder.leaf("current", str(rng.randint(1, 500)))
                builder.leaf("reserve", str(rng.randint(1, 1000)))
    return builder.document()


def _add_person(
    builder: TreeBuilder, rng: WorkloadRandom, index: int
) -> None:
    first = rng.choice(_FIRST_NAMES)
    last = rng.choice(_LAST_NAMES)
    with builder.element("person", id=f"person{index}"):
        builder.leaf("name", f"{first} {last}")
        builder.leaf(
            "emailaddress", f"{first.lower()}.{last.lower()}@example.com"
        )
        # Skewed income: a few salary bands dominate (Zipf-ish).
        band = rng.randint(1, 10)
        income = 30_000 if band <= 5 else 55_000 if band <= 8 else 120_000
        income += rng.randint(0, 4) * 1_000
        with builder.element("address"):
            builder.leaf("street", f"{rng.randint(1, 99)} Main St")
            builder.leaf("city", rng.choice(_CITIES))
            builder.leaf("country", rng.choice(_COUNTRIES))
        builder.leaf(
            "creditcard",
            " ".join(str(rng.randint(1000, 9999)) for _ in range(4)),
        )
        with builder.element("profile"):
            builder.leaf("income", str(income))
            builder.leaf("age", str(18 + rng.randint(0, 60)))
            builder.leaf("interest", rng.choice(_INTERESTS))


def xmark_constraints() -> list[SecurityConstraint]:
    """The Figure 8(a)-shaped SC set."""
    return parse_constraints(XMARK_CONSTRAINTS)
