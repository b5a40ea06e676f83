"""One scheme build evaluates each constraint path once, and builds the
same scheme it always did.

Every association SC of XMark and NASA shares its context path, so a
build used to evaluate ``//person`` (``//dataset``) once per SC endpoint.
:class:`~repro.core.constraint_graph.ConstraintBindings` memoizes within
one build; the pins below were taken before it existed.
"""

import hashlib
from collections import Counter

import pytest

from repro.core import constraints as constraints_module
from repro.core.scheme import SCHEME_KINDS, build_scheme
from repro.workloads.healthcare import (
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints

DOCUMENTS = {
    "healthcare": lambda: (build_healthcare_database(), healthcare_constraints()),
    "xmark-20": lambda: (build_xmark_database(20), xmark_constraints()),
    "nasa-20": lambda: (build_nasa_database(20), nasa_constraints()),
}

#: (document, kind) → (block roots, digest of the sorted root ids and
#: covered fields), taken before bindings were shared within a build.
PINNED = {
    ("healthcare", "opt"): (7, "db4e2238eb25180c"),
    ("healthcare", "app"): (7, "6c69fe82bc103b3a"),
    ("healthcare", "sub"): (2, "baa788330503b7ad"),
    ("healthcare", "top"): (1, "aad11d004e6b0379"),
    ("healthcare", "leaf"): (12, "8a7c6a22c91cef99"),
    ("xmark-20", "opt"): (40, "b6d753ff1a9b2074"),
    ("xmark-20", "app"): (40, "b6d753ff1a9b2074"),
    ("xmark-20", "sub"): (20, "29c4cbf88652496b"),
    ("xmark-20", "top"): (1, "93210e305c1faa8c"),
    ("xmark-20", "leaf"): (120, "ef10926a76b3f7de"),
    ("nasa-20", "opt"): (82, "9bfc0a1edee82912"),
    ("nasa-20", "app"): (82, "9bfc0a1edee82912"),
    ("nasa-20", "sub"): (41, "53493bae74f247e5"),
    ("nasa-20", "top"): (1, "0acdd926d8496949"),
    ("nasa-20", "leaf"): (203, "8e8e7113e8d13e17"),
}


@pytest.fixture(scope="module", params=sorted(DOCUMENTS))
def workload(request):
    document, constraints = DOCUMENTS[request.param]()
    return request.param, document, constraints


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_every_kind_builds_the_pinned_scheme(workload, kind):
    name, document, constraints = workload
    scheme = build_scheme(document, constraints, kind)
    text = (
        ",".join(map(str, sorted(scheme.block_root_ids)))
        + "|"
        + ",".join(sorted(scheme.covered_fields))
    )
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (len(scheme.block_root_ids), digest) == PINNED[name, kind]


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_each_path_is_evaluated_once_per_build(workload, kind, monkeypatch):
    _, document, constraints = workload
    contexts: Counter = Counter()
    endpoints: Counter = Counter()
    evaluate = constraints_module.evaluate
    evaluate_on_element = constraints_module.evaluate_on_element

    def counting_evaluate(doc, path):
        contexts[str(path)] += 1
        return evaluate(doc, path)

    def counting_evaluate_on_element(context, path):
        endpoints[id(context), str(path)] += 1
        return evaluate_on_element(context, path)

    monkeypatch.setattr(constraints_module, "evaluate", counting_evaluate)
    monkeypatch.setattr(
        constraints_module, "evaluate_on_element", counting_evaluate_on_element
    )
    build_scheme(document, constraints, kind)
    assert set(contexts.values()) == {1}
    assert set(contexts) <= {str(c.context_path) for c in constraints}
    assert set(endpoints.values()) == {1}
