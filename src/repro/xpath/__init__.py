"""XPath engine for the fragment used by the paper.

The supported grammar covers everything the paper's security constraints and
benchmark queries need:

* absolute and relative location paths (``/a/b``, ``//a``, ``.//b``, ``..``);
* axes: ``child`` (default), ``descendant``, ``descendant-or-self`` (``//``),
  ``self``, ``parent``, ``ancestor``, ``attribute`` (``@``),
  ``following-sibling``, ``preceding-sibling``;
* node tests: names, ``*`` and ``@*``;
* predicates: existence (``[q]``) and value comparisons
  (``[q = v]``, ``<``, ``<=``, ``>``, ``>=``, ``!=``) with string or numeric
  literals, plus positional predicates (``[1]``).

Two evaluation strategies are provided: :func:`evaluate` is the
set-at-a-time evaluator over the document tree (the correctness oracle and
the client-side post-processor), and :mod:`repro.xpath.compiler` lowers queries to the
pattern trees that the server's DSI structural-join machinery executes.
"""

from repro.xpath.ast import (
    Comparison,
    Exists,
    LocationPath,
    NodeTest,
    Position,
    Predicate,
    Step,
)
from repro.xpath.lexer import XPathSyntaxError, tokenize
from repro.xpath.parser import parse_xpath
from repro.xpath.evaluator import evaluate, evaluate_on_element, matches

__all__ = [
    "LocationPath",
    "Step",
    "NodeTest",
    "Predicate",
    "Comparison",
    "Exists",
    "Position",
    "parse_xpath",
    "tokenize",
    "XPathSyntaxError",
    "evaluate",
    "evaluate_on_element",
    "matches",
]
