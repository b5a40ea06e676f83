"""NASA-like synthetic astronomy dataset (the paper's real data stand-in).

The paper's real dataset is the NASA astronomy database from the UW XML
repository (``datasets/dataset`` records with author names, titles,
publishers, dates...).  The original file is not redistributable here, so
this seeded generator reproduces the structural shape and the tags of the
Figure 8(b) constraint graph: ``initial``, ``last``, ``date``,
``publisher``, ``age``, ``title``, ``city``.
"""

from __future__ import annotations

from repro.core.constraints import SecurityConstraint, parse_constraints
from repro.workloads.rng import WorkloadRandom
from repro.xmldb.builder import TreeBuilder
from repro.xmldb.node import Document

#: Association SCs matching the Figure 8(b) constraint-graph shape: every
#: edge touches ``initial`` or ``last``, so the optimal cover is
#: {initial, last} — the cover the paper reports for its opt scheme.
NASA_CONSTRAINTS = [
    "//author:(/initial, /last)",
    "//dataset:(//initial, //date)",
    "//dataset:(//last, //publisher)",
    "//dataset:(//last, /title)",
    "//dataset:(//initial, //age)",
    "//dataset:(//last, //city)",
]

_LAST_NAMES = [
    "Hubble", "Kepler", "Leavitt", "Payne", "Rubin", "Sagan", "Tombaugh",
    "Cannon", "Herschel", "Somerville", "Burnell", "Chandra",
]
_PUBLISHERS = [
    "ADC", "CDS", "NSSDC", "HEASARC", "IPAC",
]
_CITIES = ["Greenbelt", "Strasbourg", "Pasadena", "Baltimore", "Cambridge"]
_SUBJECTS = [
    "photometry", "astrometry", "spectroscopy", "radial velocities",
    "proper motions", "variable stars", "galaxy clusters",
]


def build_nasa_database(
    dataset_count: int = 150, seed: int = 2
) -> Document:
    """Generate a deterministic NASA-like document (~20 nodes per dataset)."""
    rng = WorkloadRandom(
        seed.to_bytes(8, "big").rjust(16, b"\x00"), "nasa"
    )
    builder = TreeBuilder("datasets")
    for index in range(dataset_count):
        _add_dataset(builder, rng, index)
    return builder.document()


def _add_dataset(
    builder: TreeBuilder, rng: WorkloadRandom, index: int
) -> None:
    with builder.element("dataset", subject=rng.choice(_SUBJECTS)):
        builder.leaf(
            "title",
            f"{rng.choice(_SUBJECTS).title()} catalogue {index}",
        )
        builder.leaf("altname", f"CAT-{rng.randint(100, 999)}")
        with builder.element("history"):
            with builder.element("creation"):
                # Skewed dates: most catalogues cluster in a few years.
                year = 1970 + (
                    rng.randint(0, 5)
                    if rng.randint(1, 10) <= 7
                    else rng.randint(6, 40)
                )
                builder.leaf("date", f"{year}-{rng.randint(1, 12):02d}")
        with builder.element("reference"):
            with builder.element("source"):
                with builder.element("journal"):
                    for _ in range(1 + rng.randint(0, 2)):
                        with builder.element("author"):
                            builder.leaf(
                                "initial",
                                chr(ord("A") + rng.randint(0, 25)),
                            )
                            builder.leaf("last", rng.choice(_LAST_NAMES))
                            builder.leaf("age", str(25 + rng.randint(0, 50)))
        with builder.element("distribution"):
            builder.leaf("publisher", rng.choice(_PUBLISHERS))
            builder.leaf("city", rng.choice(_CITIES))
            builder.leaf("size", str(rng.randint(1, 5000)))


def nasa_constraints() -> list[SecurityConstraint]:
    """The Figure 8(b)-shaped SC set."""
    return parse_constraints(NASA_CONSTRAINTS)
