"""Small API-surface tests for corners not covered elsewhere."""

import pytest

from repro.xmldb.node import Attribute, Element
from repro.xmldb.serializer import serialize


class TestLazyPackageExports:
    def test_top_level_reexports(self):
        import repro

        assert repro.SecurityConstraint.parse("//a")
        assert repro.EncryptionScheme
        assert repro.SecureXMLSystem

    def test_unknown_attribute(self):
        import repro

        with pytest.raises(AttributeError):
            repro.nonexistent  # noqa: B018


class TestSerializerDebugForms:
    def test_bare_attribute_debug_form(self):
        attribute = Attribute("k", "v")
        assert serialize(attribute) == "@k='v'"

    def test_indented_nested_blocks(self):
        from repro.xmldb.node import EncryptedBlockNode

        root = Element("a")
        root.append(EncryptedBlockNode(1, b"\x00"))
        pretty = serialize(root, indent=True)
        assert "EncryptedData" in pretty
        assert pretty.count("\n") >= 2


class TestKeyringAuxiliary:
    def test_field_prf_per_field(self):
        from repro.crypto.keyring import ClientKeyring

        keyring = ClientKeyring(b"k" * 16)
        assert keyring.field_prf("a")(b"m") != keyring.field_prf("b")(b"m")
        assert keyring.field_prf("a")(b"m") == keyring.field_prf("a")(b"m")


class TestAggregateModuleCorners:
    def test_combine_without_plan_rejected(self):
        from repro.core.aggregates import ServerAggregate, combine_min_max
        from repro.crypto.ope import OrderPreservingEncryption

        reply = ServerAggregate(ciphertext=5, plaintext=None, scanned_entries=1)
        with pytest.raises(ValueError):
            combine_min_max(
                reply, None, OrderPreservingEncryption(b"k" * 16), "min"
            )

    def test_combine_empty_reply(self):
        from repro.core.aggregates import ServerAggregate, combine_min_max
        from repro.crypto.ope import OrderPreservingEncryption

        reply = ServerAggregate(
            ciphertext=None, plaintext=None, scanned_entries=0
        )
        assert combine_min_max(
            reply, None, OrderPreservingEncryption(b"k" * 16), "max"
        ) is None

    def test_server_min_max_rejects_count(self, healthcare_doc, healthcare_scs):
        from repro.core.aggregates import server_min_max
        from repro.core.system import SecureXMLSystem

        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, scheme="opt"
        )
        translated = system.client.translate("//SSN")
        with pytest.raises(ValueError):
            server_min_max(
                translated,
                system.hosted.structural_index,
                system.hosted.value_index,
                "count",
            )


class TestStatsAuxiliary:
    def test_iter_value_leaves(self, healthcare_doc):
        from repro.xmldb.stats import iter_value_leaves

        leaves = list(iter_value_leaves(healthcare_doc))
        assert len(leaves) == len(list(healthcare_doc.leaves()))


class TestNegativeLiterals:
    def test_lexer_negative_number(self):
        from repro.xpath.lexer import tokenize

        tokens = tokenize("[x>-5.5]")
        numbers = [t.value for t in tokens if t.kind == "NUMBER"]
        assert numbers == ["-5.5"]

    def test_hyphenated_names_still_work(self):
        from repro.xpath.parser import parse_xpath

        path = parse_xpath("//foo-bar")
        assert path.steps[-1].test.name == "foo-bar"

    def test_negative_comparison_evaluates(self):
        from repro.xmldb.parser import parse_document
        from repro.xpath.evaluator import evaluate

        doc = parse_document("<r><t>-3</t><t>2</t></r>")
        assert [n.text_value() for n in evaluate(doc, "//t[.>-4]")] == [
            "-3",
            "2",
        ]


class TestSchemeSizeAccounting:
    def test_size_counts_decoys(self, healthcare_doc, healthcare_scs):
        from repro.core.scheme import build_scheme

        scheme = build_scheme(healthcare_doc, healthcare_scs, "opt")
        plain_nodes = sum(
            root.subtree_size()
            for root in scheme.block_roots(healthcare_doc)
        )
        assert scheme.size(healthcare_doc) > plain_nodes  # decoys included


def _defined_public_names(module):
    """Public names a module defines itself (imports excluded)."""
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and getattr(value, "__module__", module.__name__) == module.__name__
        and not isinstance(value, type(module))
    }


class TestOneSerialPipeline:
    """The parallel engine is gone: one wire shape, no knob selects another."""

    def test_wire_codec_surface(self):
        from repro.netsim import message

        assert _defined_public_names(message) == {
            "MessageDecodeError",
            "encode_query", "decode_query",
            "encode_response", "decode_response",
        }

    def test_framing_surface(self):
        from repro.serving import framing

        opcodes = {
            name: value
            for name, value in vars(framing).items()
            if name.startswith("OP_")
        }
        assert opcodes == {
            "OP_HELLO": 1, "OP_QUERY": 2, "OP_NAIVE": 4, "OP_UPDATE": 5,
            "OP_STATS": 7,
            "OP_OK": 16, "OP_ERROR": 19, "OP_HELLO_OK": 20,
        }
        assert _defined_public_names(framing) - set(opcodes) == {
            "MAX_FRAME_BYTES", "PROTOCOL_VERSION",
            "FrameError", "ConnectionClosedError",
            "encode_frame", "decode_frame", "read_frame",
        }

    def test_one_blocking_client_and_no_fault_transport(self):
        """The owner's end is one blocking connection under a system that
        keeps its own channel: no async client, no socket-side fault
        transport, no load generator, no knob with one value in use."""
        import importlib
        import inspect

        from repro import netsim, serving

        for module in ("repro.serving.transport", "repro.serving.loadgen"):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        for name in (
            "AsyncServingClient", "RemoteServer", "AsyncFaultTransport",
            "run_load", "LoadReport",
        ):
            assert not hasattr(serving, name), name
        assert not hasattr(netsim, "NullChannel")
        assert list(inspect.signature(serving.remote_system).parameters) == [
            "local", "address", "tenant", "channel",
        ]
        assert "workers" not in inspect.signature(
            serving.ServingServer
        ).parameters

    def test_counter_registry_surface(
        self, healthcare_doc, healthcare_scs
    ):
        """One record: counts on spans, one process total read through
        ``MetricsRegistry``; no counter package, no off switch, no knob
        with one value in use."""
        import importlib
        import inspect

        from repro import obs
        from repro.core.system import SecureXMLSystem
        from repro.obs import MetricsRegistry, Observability
        from repro.obs.metrics import CACHE_LAYERS, COUNTERS

        with pytest.raises(ImportError):
            importlib.import_module("repro.perf")
        assert not hasattr(obs, "Tracer")
        assert not hasattr(obs.span, "Tracer")
        for knobless in (Observability, MetricsRegistry):
            assert list(inspect.signature(knobless).parameters) == []
        observability = Observability()
        assert not hasattr(observability, "enabled")
        assert not hasattr(observability, "tracer")
        with pytest.raises(TypeError):
            SecureXMLSystem.host(
                healthcare_doc, healthcare_scs, observability=False
            )
        methods = {
            name
            for name, value in vars(MetricsRegistry).items()
            if callable(value) and not name.startswith("_")
        }
        assert {"counter_values", "counters_delta", "hit_rate"} <= methods
        assert CACHE_LAYERS == ("plan", "fragment", "block", "tree", "interval")
        retired = {
            "answer_cache_hits", "answer_cache_misses", "chunks_streamed",
            "parallel_decrypt_tasks", "sharded_filter_runs",
            "serving_streams",
        }
        assert not retired & set(COUNTERS)
        assert set(MetricsRegistry().counter_values()) == set(COUNTERS)

    def test_engine_knobs_are_rejected_or_ignored(
        self, healthcare_doc, healthcare_scs, monkeypatch
    ):
        import importlib
        import threading

        from repro.core.system import SecureXMLSystem
        from repro.serving import ServingServer, remote_system

        with pytest.raises(ImportError):
            importlib.import_module("repro.core.parallel")
        with pytest.raises(TypeError):
            SecureXMLSystem.host(healthcare_doc, healthcare_scs, parallel=4)

        queries = ["//patient/SSN", "//pname", "//patient/SSN"]
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        plain = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        expected = [a.canonical() for a in plain.execute_many(queries)]

        monkeypatch.setenv("REPRO_WORKERS", "4")
        threads_before = threading.active_count()
        system = SecureXMLSystem.host(healthcare_doc, healthcare_scs)
        answers = system.execute_many(queries)
        assert threading.active_count() == threads_before
        assert [a.canonical() for a in answers] == expected
        assert len(system.last_batch_traces) == len(
            plain.last_batch_traces
        ) == len(queries)

        server = ServingServer()
        server.register_tenant("t0", system)
        try:
            with pytest.raises(TypeError):
                remote_system(system, server.start(), "t0", parallel=2)
        finally:
            server.stop()

    def test_cache_and_fast_path_switches_are_gone(
        self, healthcare_doc, healthcare_scs, tmp_path
    ):
        from repro.core.client import Client
        from repro.core.server import Server
        from repro.core.storage import load_system, save_system
        from repro.core.system import SecureXMLSystem
        from repro.crypto import aes
        from repro.crypto.keyring import ClientKeyring

        key = b"k" * 32
        system = SecureXMLSystem.host(
            healthcare_doc, healthcare_scs, master_key=key
        )
        save_system(system, str(tmp_path / "saved"))
        for call in (
            lambda: SecureXMLSystem.host(
                healthcare_doc, healthcare_scs, fast_path=False
            ),
            lambda: load_system(str(tmp_path / "saved"), key, fast_path=False),
            lambda: Client(system.keyring, system.hosted, enable_cache=False),
            lambda: Server(system.hosted, enable_cache=False),
            lambda: ClientKeyring(key, fast_aes=False),
        ):
            with pytest.raises(TypeError):
                call()
        assert not hasattr(aes, "ReferenceAES128")
        assert not hasattr(system, "fast_path")


class TestOneServerBehindTheOwner:
    """The sharded join is gone: no module, field, key or knob of it is left."""

    def test_cluster_modules_fields_and_knobs_are_gone(
        self, healthcare_doc, healthcare_scs
    ):
        import dataclasses
        import importlib
        import pathlib

        import repro
        from repro.core.server import Fragment
        from repro.core.system import QueryTrace, SecureXMLSystem

        for module in ("repro.cluster", "repro.serving.gateway"):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        assert {f.name for f in dataclasses.fields(Fragment)} == {
            "ancestor_path", "xml",
        }
        assert not [
            f.name for f in dataclasses.fields(QueryTrace)
            if f.name.startswith("cluster_")
        ]
        for knob in ("cluster", "cluster_faults"):
            with pytest.raises(TypeError):
                SecureXMLSystem.host(
                    healthcare_doc, healthcare_scs, **{knob: None}
                )
        retired = ("REPRO_SHARDS", "REPRO_REPLICAS", "--shards", "scatter")
        for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
            text = path.read_text()
            assert not [word for word in retired if word in text], path

    def test_a_stray_root_id_key_is_ignored_on_the_wire(self):
        import json

        from repro.core.server import Fragment, ServerResponse
        from repro.netsim.message import (
            MessageDecodeError,
            decode_response,
            encode_response,
        )

        response = ServerResponse(
            fragments=[Fragment(ancestor_path=(("a", 1),), xml="<b/>")],
            blocks_shipped=0,
        )
        record = json.loads(encode_response(response))
        assert set(record) == {"a", "b", "cc", "f", "n", "x"}
        record["r"] = [7]  # what a shard used to tag its fragments with
        assert decode_response(json.dumps(record).encode()) == response
        for missing in ("a", "f", "x"):
            broken = json.loads(encode_response(response))
            del broken[missing]
            with pytest.raises(MessageDecodeError):
                decode_response(json.dumps(broken).encode())


def test_no_module_of_the_package_imports_a_name_it_never_uses():
    """ruff F401, the lint job's commonest finding, where it runs offline.
    Exempt: ``__init__.py`` re-exports, ``TYPE_CHECKING`` blocks, ``from
    __future__``; a name inside a string annotation counts as used."""
    import ast
    import pathlib

    import repro

    def names(tree):
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}

    unused = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used, exempt = {}, names(tree) | {"annotations"}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
                exempt.update(map(id, ast.walk(node)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in exempt:
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= names(ast.parse(node.value.strip(), mode="eval"))
                except SyntaxError:
                    pass  # prose, not an annotation
        unused += [f"{path}:{n} {name}" for name, n in imported.items() if name not in used]
    assert not unused, unused


def test_no_module_of_the_package_imports_asyncio_or_concurrent_futures():
    """The front door is one blocking thread per connection and the
    owner's end one blocking socket: no event loop, no executor."""
    import ast
    import pathlib

    import repro

    offenders = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path}:{node.lineno} imports {name}"
                for name in imported
                if name.split(".")[0] == "asyncio"
                or name.startswith("concurrent.futures")
                or name == "concurrent"
            ]
    assert not offenders, offenders


def test_no_module_of_the_package_reads_the_environment():
    """Every setting is an argument: nothing under ``src/repro`` reads
    ``os.environ`` or calls ``os.getenv``."""
    import ast
    import pathlib

    import repro

    offenders = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
                reads = (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and name in ("environ", "environb", "getenv", "getenvb")
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                name = ",".join(alias.name for alias in node.names)
                reads = any(
                    alias.name in ("environ", "environb", "getenv", "getenvb")
                    for alias in node.names
                )
            else:
                continue
            if reads:
                offenders.append(f"{path}:{node.lineno} {name}")
    assert not offenders, offenders


def test_cryptography_and_generators_do_not_import_each_other():
    """Format 3's layering, where it can be checked offline: nothing under
    ``repro/crypto`` or ``repro/core`` imports ``repro.workloads`` or
    anything named ``siphash`` (the hosted bytes have one PRF and no
    switch), and the generators' stream, ``repro.workloads.rng``, is
    imported only from ``repro/workloads/`` (the documents have one too)."""
    import ast
    import pathlib

    import repro

    package = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        layer = path.relative_to(package).parts[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported = [module] + [
                    f"{module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            for name in imported:
                if layer in ("crypto", "core") and (
                    name.startswith("repro.workloads")
                    or "siphash" in name.lower()
                ):
                    offenders.append(f"{path}:{node.lineno} imports {name}")
                if layer != "workloads" and name.startswith(
                    "repro.workloads.rng"
                ):
                    offenders.append(f"{path}:{node.lineno} imports {name}")
    assert not offenders, offenders


def _package_imports():
    """Module name → every dotted name its source imports, statically.

    An import anywhere in a module counts, a function-level one included;
    ``from a import b`` imports ``a`` and names ``a.b`` (a module when
    ``b`` is one).
    """
    import ast
    import pathlib

    import repro

    package = pathlib.Path(repro.__file__).parent
    imports = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(
                    f"{node.module}.{alias.name}" for alias in node.names
                )
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        imports[name] = imported
    return imports


#: ``src/`` modules no deployed entry point imports, each with its reason.
#: Everything else a test, a benchmark or CI alone calls lives in tests/.
UNREACHABLE_BY_DESIGN = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.core.enforcement": "the Theorem 4.1 checker owners run on a scheme",
    "repro.security.enumeration": (
        "paper evidence: examples/attack_simulation.py enumerates candidates"
    ),
    "repro.security.indistinguishability": (
        "paper evidence: examples/attack_simulation.py checks Definition 3.1"
    ),
    "repro.workloads.axes": "the axis-complete workload the axes gate runs",
}


def test_every_module_of_the_package_is_reachable_or_allow_listed():
    """``src/`` ships what runs: every module is imported, transitively,
    from ``repro``, the CLI, the system or the serving layer — or is on
    :data:`UNREACHABLE_BY_DESIGN` with its reason.  Importing ``a.b.c``
    runs ``a`` and ``a.b`` first."""
    imports = _package_imports()
    reached = set()
    frontier = ["repro", "repro.cli", "repro.core.system", "repro.serving"]
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        for name in imports[module]:
            parts = name.split(".")
            prefixes = (".".join(parts[:n]) for n in range(1, len(parts) + 1))
            frontier += [prefix for prefix in prefixes if prefix in imports]
    assert sorted(imports.keys() - reached) == sorted(UNREACHABLE_BY_DESIGN)


def test_no_module_of_the_package_imports_from_tests():
    """Test doubles and slow references live in ``tests/`` and nothing in
    ``src/`` may lean on them: no import names ``tests`` or a module
    that lives there."""
    import pathlib

    test_modules = {"tests"} | {
        path.stem for path in pathlib.Path(__file__).parent.glob("*.py")
    }
    offenders = [
        f"{module} imports {name}"
        for module, imported in _package_imports().items()
        for name in sorted(imported)
        if name.split(".")[0] in test_modules
    ]
    assert not offenders, offenders


def test_every_seed_reading_test_runs_in_the_seeds_job():
    """A tests/ file that reads ``REPRO_CHAOS_SEEDS`` runs under CI's seed
    matrix only if the ``seeds`` job names it.  Read as text: a job is a
    two-space-indented key, and its body runs to the next one."""
    import pathlib
    import re

    tests = pathlib.Path(__file__).parent
    workflow = (tests.parent / ".github" / "workflows" / "ci.yml").read_text()
    seeds_job = re.search(
        r"^  seeds:\n(.*?)(?=^  [\w-]+:\n|\Z)", workflow, re.M | re.S
    ).group(1)
    readers = [
        f"tests/{path.name}"
        for path in sorted(tests.glob("test_*.py"))
        if re.search(r"environ.*REPRO_CHAOS_SEEDS", path.read_text())
    ]
    assert "REPRO_CHAOS_SEEDS:" in seeds_job
    assert len(readers) >= 3
    assert [name for name in readers if name not in seeds_job] == []
