"""Substrate micro-benchmarks: the primitives the system is built on.

Not paper figures — these track the per-operation costs that determine the
experiment run times (and guard against performance regressions in the
from-scratch primitives; the spec SHA-256 and the generators' SipHash run
in no measured path and have no row).  Each uses proper multi-round pytest-benchmark
measurement since the operations are cheap.
"""

from repro.core.opess import KeyRuns
from repro.crypto.aes import AES128
from repro.crypto.hmac import hmac_sha256
from repro.crypto.ope import OrderPreservingEncryption
from repro.workloads.healthcare import build_healthcare_database
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize
from repro.xpath.evaluator import evaluate

_KEY16 = bytes(range(16))
_BLOCK = bytes(range(16))


def test_micro_hmac(benchmark):
    result = benchmark(hmac_sha256, b"key", b"message" * 8)
    assert len(result) == 32


def test_micro_aes_block(benchmark):
    cipher = AES128(_KEY16)
    result = benchmark(cipher.encrypt_block, _BLOCK)
    assert len(result) == 16


def test_micro_ope_encrypt(benchmark):
    ope = OrderPreservingEncryption(b"k" * 16)
    counter = iter(range(10**9))

    def encrypt_fresh():
        return ope.encrypt_float(float(next(counter)))

    benchmark(encrypt_fresh)


def test_micro_value_index_range_scan(benchmark):
    index = KeyRuns(list(range(5000)), [[key] for key in range(5000)])

    def scan():
        return sum(1 for _ in index.range_scan(1000, 2000))

    assert benchmark(scan) == 1001


def test_micro_xml_parse(benchmark):
    xml = serialize(build_healthcare_database())

    def parse():
        return parse_document(xml)

    document = benchmark(parse)
    assert document.root.tag == "hospital"


def test_micro_xpath_evaluate(benchmark):
    document = build_healthcare_database()
    query = "//patient[.//insurance//@coverage>=10000]//SSN"

    def run():
        return evaluate(document, query)

    assert len(benchmark(run)) == 2
