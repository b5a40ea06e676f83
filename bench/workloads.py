"""The four benchmark workloads: documents, query shapes and seeded op lists.

Everything here is *input*: a workload is a document size, a fixed list of
query-shape templates, and a rule that turns ``--seed`` into rounds of
operations.  Shapes are classed ``ship`` or ``select`` by a property of the
input — whether the path outputs or traverses a subtree holding tags the
``opt`` scheme encrypts (``name``/``creditcard`` on XMark, ``initial``/
``last`` on NASA) — never by asking the program what it did with them.

A **round** is the unit the runner repeats until its time is up: a fixed
multiset of reads (shuffled per round by the seed) plus a fixed number of
writes.  Because every round holds the same reads, count metrics such as
``bytes_per_query`` do not depend on how many rounds fit into the run.
Writes keep value lengths constant and the insert/delete cycle is
net-zero, so the document does not drift either.

The seed picks the predicate constants (sampled from the document; numeric
thresholds from the middle tenth of the value distribution so selectivity —
and with it the cost of a shape — stays comparable across seeds), the order
within each round and the write targets.  Same seed, same op lists.  The
document itself is the same for every seed: hosting cost, storage blow-up
and memory are properties of the document, and letting them wander with the
seed would only widen the noise every later comparison has to see through.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.core.constraints import SecurityConstraint
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints
from repro.xmldb.node import Document

#: Seed of both documents (the paper's year); see the module docstring.
DOCUMENT_SEED = 2006

#: The owner's master key.  ``load_system`` needs the key the hosting was
#: made under, so the benchmark names one instead of relying on the
#: system's private default.
MASTER_KEY = b"bench-owner-master-key-0123456789"

READ = "read"
INSERT = "insert"
UPDATE = "update"
DELETE = "delete"


@dataclass(frozen=True)
class Op:
    """One operation against the hosted database."""

    kind: str
    xpath: str
    tag: str = ""  # insert only
    value: str = ""  # insert and update

    @property
    def is_write(self) -> bool:
        return self.kind != READ


@dataclass(frozen=True)
class Template:
    """A query shape; ``{v}`` is filled with a value of leaf tag ``field``.

    ``numeric`` marks a threshold predicate (``age>{v}``), sampled from
    the middle of the field's distribution instead of uniformly.
    """

    xpath: str
    field: str = ""
    numeric: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str  # "xmark" or "nasa"
    size: int  # persons / datasets
    #: ``flush_caches()`` before every op, outside the timed region.
    cold: bool
    #: 0 = in-process system; N = N ``remote_system`` connections (one
    #: thread each) onto an in-process ``ServingServer``.
    connections: int
    #: (template, copies per round) — the read mix of one round.
    reads: tuple[tuple[Template, int], ...]
    #: Writes per round (issued by connection 0 when there are several).
    writes_per_round: int
    #: End with ``save_system`` → ``load_system`` and re-check every read.
    restart: bool = False


# ----------------------------------------------------------------------
# Query shapes
# ----------------------------------------------------------------------
#: Output or traverse encrypted ``person`` subtrees: the server must ship
#: ciphertext blocks and the client must decrypt them.
XMARK_SHIP = (
    Template("/site/people"),
    Template("//people/person"),
    Template("//creditcard"),
    Template("//name/self::name"),
    Template("//person/@id"),
    Template("//person/.."),
    Template("//address/preceding-sibling::name"),
    Template("//emailaddress/preceding-sibling::name"),
    Template("//person[@id='{v}']/creditcard", "@id"),
    Template("//person[profile/age>{v}]/name", "age", numeric=True),
    Template("//person[address/city='{v}']/creditcard", "city"),
    Template("//person[profile/interest='{v}']/address/country", "interest"),
)

#: Touch only plaintext tags: Ql-class outputs, value predicates and
#: non-order axes.  No encrypted block is shipped.
XMARK_SELECT = (
    Template("//income"),
    Template("//profile/interest[.='{v}']", "interest"),
    Template("//auction/reserve[.='{v}']", "reserve"),
    Template("//itemref/parent::auction"),
    Template("//auction/itemref[1]"),
    Template("//profile[age>{v}]/income", "age", numeric=True),
    Template("//auction[current<{v}]/reserve", "current", numeric=True),
    Template("//address/city[.='{v}']", "city"),
)

#: Order axes over plaintext tags: the server ships a superset and the
#: client's post-processing does the ordering work.
XMARK_ORDER = (
    Template("//income/following::age"),
    Template("//interest/preceding::age"),
)

#: The warm ship side of ``serve-socket``: a point lookup, two predicate
#: ranges and one full column, so the re-decryption a write forces on both
#: connections stays a fraction of the run.
XMARK_WARM_SHIP = (
    (Template("//person[address/city='{v}']/creditcard", "city"), 4),
    (Template("//person[profile/interest='{v}']/address/country", "interest"), 3),
    (Template("//person[@id='{v}']/name", "@id"), 2),
    (Template("//creditcard"), 1),
)

#: The NASA hot set, most requested first.  ``note`` and
#: ``distribution/last`` exist only while a write cycle has them inserted.
NASA_HOT = (
    Template("//dataset[title='{v}']//author", "title"),
    Template("//dataset/title"),
    Template("//distribution/publisher"),
    Template("//journal/author[1]/initial"),
    Template("//creation/date"),
    Template("//author/last"),
    Template("//dataset[distribution/city='{v}']/altname", "city"),
    Template("//dataset/note"),
    Template("//distribution/last"),
    Template("//author[age>{v}]/last", "age", numeric=True),
)

#: Zipf-style request counts for the ten hot shapes: 49 reads per round,
#: proportional to 1/rank.
NASA_HOT_COUNTS = (17, 8, 6, 4, 3, 3, 2, 2, 2, 2)

WORKLOADS = (
    Workload(
        name="cold-ship",
        why=(
            "cold queries that output or traverse encrypted person subtrees: "
            "client decryption is nearly all of the time, so a decrypt "
            "change must show here and a faster join must not"
        ),
        dataset="xmark",
        size=200,
        cold=True,
        connections=0,
        reads=tuple((template, 1) for template in XMARK_SHIP),
        writes_per_round=6,
    ),
    Workload(
        name="cold-select",
        why=(
            "cold queries over plaintext tags, 80% selections shipping no block "
            "and 20% order axes: median is server join + serialize + verify, "
            "p90 client post-processing; decrypt changes predict no change"
        ),
        dataset="xmark",
        size=200,
        cold=True,
        connections=0,
        reads=tuple((template, 3) for template in XMARK_SELECT + XMARK_ORDER),
        writes_per_round=1,
    ),
    Workload(
        name="hot-rw",
        why=(
            "Zipf reads of a ten-shape hot set, one write per 50 ops, then save "
            "and reload: median is the cache-hit path, p90 the re-cold path "
            "after an epoch bump, writes price the update engine"
        ),
        dataset="nasa",
        size=200,
        cold=False,
        connections=0,
        reads=tuple(zip(NASA_HOT, NASA_HOT_COUNTS)),
        writes_per_round=1,
        restart=True,
    ),
    Workload(
        name="serve-socket",
        why=(
            "two owner connections over a real TCP front door run the full "
            "pipeline on a warm 8:2 select:ship mix with sealed updates: the "
            "only path with framing, event loop, admission and tenant locks"
        ),
        dataset="xmark",
        size=200,
        cold=False,
        connections=2,
        reads=tuple((template, 5) for template in XMARK_SELECT)
        + XMARK_WARM_SHIP,
        writes_per_round=1,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
def build_document(
    workload: Workload, size: int | None = None
) -> tuple[Document, list[SecurityConstraint]]:
    """The workload's plaintext document and its security constraints."""
    count = size if size is not None else workload.size
    if workload.dataset == "xmark":
        return (
            build_xmark_database(count, seed=DOCUMENT_SEED),
            xmark_constraints(),
        )
    if workload.dataset == "nasa":
        return (
            build_nasa_database(count, seed=DOCUMENT_SEED),
            nasa_constraints(),
        )
    raise ValueError(f"unknown dataset {workload.dataset!r}")


def _field_values(document: Document, field: str) -> list[str]:
    """Every occurrence of a leaf field's value, in document order."""
    if field.startswith("@"):
        name = field[1:]
        return [
            attribute.value
            for element in document.elements()
            for attribute in element.attributes
            if attribute.name == name
        ]
    values = []
    for element in document.elements():
        if element.tag == field:
            value = element.text_value()
            if value is not None:
                values.append(value)
    return values


def _sample(values: list[str], numeric: bool, rng: random.Random) -> str:
    """A predicate constant of middling selectivity.

    Thresholds come from the middle tenth of the value distribution,
    equality constants from the middle half of the distinct values ranked
    by how often they occur.
    """
    if not values:
        raise ValueError("workload bug: template field has no values")
    if numeric:
        ranked = sorted(values, key=float)
        return rng.choice(ranked[len(ranked) * 9 // 20 : len(ranked) * 11 // 20 + 1])
    counts = Counter(values)
    ranked = sorted(counts, key=lambda v: (counts[v], v))
    quarter = len(ranked) // 4
    return rng.choice(ranked[quarter : len(ranked) - quarter])


# ----------------------------------------------------------------------
# Op lists
# ----------------------------------------------------------------------
class Plan:
    """The seeded op lists of one workload run.

    ``round_ops(k, c)`` is round ``k`` of connection ``c``: the writes
    (connection 0 only) first, then the reads in that round's order.
    Putting the write first means the round's reads all run in the state
    it leaves, so the final state of a run always has reads to check.
    """

    def __init__(self, workload: Workload, document: Document, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"{seed}:{workload.name}:values")
        reads: list[str] = []
        for template, copies in workload.reads:
            if not template.field:
                reads.extend([template.xpath] * copies)
                continue
            values = _field_values(document, template.field)
            if workload.cold:
                # Cold copies are independent queries: one constant each.
                picks = [
                    _sample(values, template.numeric, rng)
                    for _ in range(copies)
                ]
            else:
                # A hot set repeats itself: one constant for all copies.
                picks = [_sample(values, template.numeric, rng)] * copies
            reads.extend(template.xpath.replace("{v}", v) for v in picks)
        #: The read multiset every round of every connection holds.
        self.reads: tuple[str, ...] = tuple(reads)
        if workload.dataset == "xmark":
            self._targets = _field_values(document, "@id")
        else:
            self._targets = _field_values(document, "title")

    def distinct_reads(self) -> list[str]:
        return list(dict.fromkeys(self.reads))

    def round_ops(self, round_index: int, connection: int = 0) -> list[Op]:
        workload = self.workload
        rng = random.Random(
            f"{self.seed}:{workload.name}:{connection}:{round_index}"
        )
        reads = list(self.reads)
        rng.shuffle(reads)
        ops: list[Op] = []
        if connection == 0:
            for slot in range(workload.writes_per_round):
                ops.append(
                    self._write(round_index * workload.writes_per_round + slot)
                )
            if workload.connections:
                # Keep every connection's round the same length.
                reads = reads[: len(reads) - workload.writes_per_round]
        ops.extend(Op(READ, xpath) for xpath in reads)
        return ops

    def closing_writes(self, done: int) -> list[Op]:
        """The writes that finish the insert/delete cycle ``done`` is in.

        Empty on XMark, whose writes are single updates.
        """
        if self.workload.dataset != "nasa":
            return []
        return [self._write(index) for index in range(done, -(-done // 5) * 5)]

    def _write(self, index: int) -> Op:
        if self.workload.dataset == "nasa":
            return self._nasa_write(index)
        # XMark: rewrite one person's (encrypted) credit card with a fresh
        # value of the same length, so shipped bytes stay what they were.
        rng = random.Random(f"{self.seed}:{self.workload.name}:write:{index}")
        person = rng.choice(self._targets)
        card = " ".join(str(rng.randint(1000, 9999)) for _ in range(4))
        return Op(UPDATE, f"//person[@id='{person}']/creditcard", value=card)

    def _nasa_write(self, index: int) -> Op:
        """Five-step cycle on one dataset; net effect on the document: none.

        encrypted-field insert, plaintext insert, update of the inserted
        encrypted leaf, then one delete per insert.
        """
        cycle, step = divmod(index, 5)
        rng = random.Random(f"{self.seed}:{self.workload.name}:cycle:{cycle}")
        dataset = f"//dataset[title='{rng.choice(self._targets)}']"
        if step == 0:
            return Op(INSERT, f"{dataset}/distribution", "last", f"w{cycle}")
        if step == 1:
            return Op(INSERT, dataset, "note", f"n{cycle}")
        if step == 2:
            return Op(UPDATE, f"{dataset}/distribution/last", value=f"x{cycle}")
        if step == 3:
            return Op(DELETE, f"{dataset}/distribution/last")
        return Op(DELETE, f"{dataset}/note")

