"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    Run the Figure 1 pipeline end-to-end on the paper's Figure 2 database
    and print the per-stage trace.

``host``
    Generate a workload, host it under a scheme, and print hosting
    statistics (blocks, sizes, index entries).

``query``
    Host a workload and evaluate one XPath query through the secure
    pipeline, printing the answer and the trace.

``schemes``
    Compare all four scheme granularities on one workload (hosting cost +
    query cost per §7.1 query class).

``attack``
    Mount the frequency-based attack against the strawman, decoy and
    OPESS designs on a workload, over twenty master keys, and print how
    many of its claimed matches were right; then play the access-pattern
    game once, scoring the unprotected and the protected observer.

``trace``
    Run one query and print its nested span tree, its stage totals, and
    a reconciliation table proving the counts on its root span are
    exactly what it added to the process total.

``stats``
    Run a query workload and export the observability snapshot —
    counters, latency histograms and the slow-query log — as a table,
    JSON, or Prometheus text exposition.

``serve``
    Host a workload behind the socket front door (one blocking thread
    per connection) and serve it as a tenant until interrupted (or for
    ``--serve-for`` seconds), then drain gracefully: finish in-flight
    requests, flush caches, and persist the hosting when ``--storage``
    is given.  ``--leakage`` turns the access-pattern countermeasures on.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.system import SecureXMLSystem
from repro.workloads.healthcare import (
    EXAMPLE_QUERY,
    build_healthcare_database,
    healthcare_constraints,
)
from repro.workloads.nasa import build_nasa_database, nasa_constraints
from repro.workloads.xmark import build_xmark_database, xmark_constraints

WORKLOADS = ("healthcare", "xmark", "nasa")


def build_workload(name: str, size: int, seed: int):
    """Return (document, constraints) for a named workload."""
    if name == "healthcare":
        return build_healthcare_database(), healthcare_constraints()
    if name == "xmark":
        return (
            build_xmark_database(person_count=size, seed=seed),
            xmark_constraints(),
        )
    if name == "nasa":
        return (
            build_nasa_database(dataset_count=size, seed=seed),
            nasa_constraints(),
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="healthcare",
        help="which dataset to generate",
    )
    parser.add_argument(
        "--scheme", choices=("opt", "app", "sub", "top", "leaf"),
        default="opt", help="encryption-scheme granularity (§7.1)",
    )
    parser.add_argument(
        "--size", type=int, default=50,
        help="workload scale (persons / datasets; ignored for healthcare)",
    )
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument(
        "--key", default=None,
        help="master-key passphrase (defaults to the demo key)",
    )


def _master_key(args: argparse.Namespace) -> bytes:
    from repro.core.system import _DEFAULT_MASTER_KEY
    from repro.crypto.hmac import derive_key

    if getattr(args, "key", None) is None:
        return _DEFAULT_MASTER_KEY
    return derive_key(args.key.encode("utf-8"), "cli-master")


def _print_hosting(system: SecureXMLSystem) -> None:
    trace = system.hosting_trace
    print(f"scheme          : {trace.scheme_kind}")
    print(f"covered fields  : {sorted(system.scheme.covered_fields)}")
    print(f"blocks          : {trace.block_count}")
    print(f"decoys          : {trace.decoy_count}")
    print(f"plaintext bytes : {trace.plaintext_bytes}")
    print(f"hosted bytes    : {trace.hosted_bytes}")
    print(f"DSI entries     : {trace.index_entries}")
    print(f"value entries   : {trace.value_index_entries}")
    print(f"encrypt time    : {trace.encrypt_s:.3f}s")


def cmd_demo(_args: argparse.Namespace) -> int:
    document = build_healthcare_database()
    system = SecureXMLSystem.host(
        document, healthcare_constraints(), scheme="opt"
    )
    _print_hosting(system)
    print(f"\nquery: {EXAMPLE_QUERY}")
    answer = system.query(EXAMPLE_QUERY)
    print(f"answer: {sorted(answer.values())}")
    assert system.last_trace is not None
    for key, value in system.last_trace.as_row().items():
        print(f"  {key}: {value}")
    return 0


def cmd_host(args: argparse.Namespace) -> int:
    document, constraints = build_workload(args.workload, args.size, args.seed)
    print(f"workload {args.workload}: {document.size()} nodes")
    system = SecureXMLSystem.host(
        document, constraints, scheme=args.scheme,
        master_key=_master_key(args),
    )
    _print_hosting(system)
    if args.save:
        from repro.core.storage import save_system

        save_system(system, args.save)
        print(f"saved hosting to {args.save}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if args.load:
        from repro.core.storage import StorageError, load_system

        try:
            system = load_system(args.load, _master_key(args))
        except StorageError as exc:
            # Corrupt/tampered hosting: one-line diagnostic, nonzero exit —
            # never a traceback, never a query over bad state.
            print(f"error: cannot load hosting: {exc}", file=sys.stderr)
            return 2
    else:
        document, constraints = build_workload(
            args.workload, args.size, args.seed
        )
        system = SecureXMLSystem.host(
            document, constraints, scheme=args.scheme
        )
    answer = system.query(args.xpath)
    print(f"answers ({len(answer)}):")
    for canonical in answer.canonical():
        print(f"  {canonical}")
    assert system.last_trace is not None
    print("trace:")
    for key, value in system.last_trace.as_row().items():
        print(f"  {key}: {value}")
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    from repro.bench.harness import format_table, run_query_class
    from repro.workloads.queries import QueryWorkload

    document, constraints = build_workload(args.workload, args.size, args.seed)
    workload = QueryWorkload(document, seed=args.seed, per_class=5).by_class()
    rows = []
    for kind in ("top", "sub", "app", "opt"):
        system = SecureXMLSystem.host(document, constraints, scheme=kind)
        for query_class, queries in workload.items():
            result = run_query_class(system, query_class, queries)
            rows.append(
                [kind, query_class, result.server_s, result.decrypt_s,
                 result.postprocess_s, result.total_s]
            )
    print(format_table(
        ["scheme", "class", "t_server", "t_decrypt", "t_post", "t_total"],
        rows,
        f"scheme comparison on {args.workload} ({document.size()} nodes)",
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.bench.harness import format_table
    from repro.obs import STAGES

    document, constraints = build_workload(args.workload, args.size, args.seed)
    system = SecureXMLSystem.host(
        document, constraints, scheme=args.scheme,
        master_key=_master_key(args),
    )
    metrics = system.observability().metrics
    before = metrics.counter_values()
    answer = system.query(args.xpath)
    delta = metrics.counters_delta(before)
    root = system.last_trace.span
    print(f"answers: {len(answer)}")
    print()
    print(root.render())
    print()
    print(format_table(
        ["stage", "ms"],
        [[name, f"{root.total(name) * 1000:.3f}"] for name in STAGES],
        "stage totals",
    ))
    print()
    counted = sorted(name for name, value in delta.items() if value)
    counted += sorted(set(root.counts) - set(counted))
    print(format_table(
        ["counter", "root", "process_delta"],
        [[name, root.counts.get(name, 0), delta.get(name, 0)]
         for name in counted],
        "count reconciliation (the root's counts vs the process total)",
    ))
    if any(root.counts.get(name, 0) != delta.get(name, 0) for name in counted):
        print("error: the root's counts disagree with the process total",
              file=sys.stderr)
        return 1
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the compiled plan for a query — no hosting, no round-trip.

    Shows which plan the planner picked (axis / residual), why no
    pattern anchors a residual query, and the pattern tree with ship-set
    and positional markers.  Purely client-side: nothing is hosted and
    no server is contacted.
    """
    from repro.xpath.plan import explain_plan

    print(explain_plan(args.xpath))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.workloads.queries import QueryWorkload

    document, constraints = build_workload(args.workload, args.size, args.seed)
    system = SecureXMLSystem.host(
        document, constraints, scheme=args.scheme,
        master_key=_master_key(args),
    )
    workload = QueryWorkload(
        document, seed=args.seed, per_class=args.per_class
    ).by_class()
    queries = [query for batch in workload.values() for query in batch]
    system.execute_many(queries)
    obs = system.observability()
    if args.format == "json":
        print(obs.export_json())
        return 0
    if args.format == "prometheus":
        sys.stdout.write(obs.export_prometheus())
        return 0
    from repro.bench.harness import counter_report, format_table

    metrics = obs.metrics.snapshot()
    print(f"workload {args.workload}: {len(queries)} queries")
    print()
    print(counter_report(metrics["counters"]))
    print()
    rows = []
    for name, data in sorted(metrics["histograms"].items()):
        rows.append([
            name,
            data["count"],
            f"{(data['sum'] * 1000):.3f}",
            f"{((data['min'] or 0.0) * 1000):.3f}",
            f"{((data['max'] or 0.0) * 1000):.3f}",
        ])
    print(format_table(
        ["histogram", "count", "sum_ms", "min_ms", "max_ms"],
        rows,
        "latency histograms",
    ))
    serving_rows: list[list] = []
    for name, value in sorted(metrics["gauges"].items()):
        rendered = int(value) if value == int(value) else round(value, 3)
        serving_rows.append([name, rendered])
    for family, series in sorted(metrics["labeled"].items()):
        for key, count in sorted(series.items()):
            sample = f"{family}{{{key}}}" if key else family
            serving_rows.append([sample, count])
    print()
    print(format_table(
        ["serving metric", "value"],
        serving_rows,
        "serving gauges + labeled counters",
    ))
    print()
    print(obs.slow_log.render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.core.leakage import DECOYS, PAD_TO
    from repro.serving import ServingServer

    document, constraints = build_workload(args.workload, args.size, args.seed)
    system = SecureXMLSystem.host(
        document, constraints, scheme=args.scheme,
        master_key=_master_key(args),
        leakage=args.leakage,
    )
    server = ServingServer(
        host=args.host, port=args.port,
        max_inflight=args.max_inflight, obs=system.observability(),
    )
    server.register_tenant(args.tenant, system, storage_dir=args.storage)
    host, port = server.start()
    print(
        f"serving tenant {args.tenant!r} "
        f"({args.workload}/{args.scheme}) "
        f"on {host}:{port}"
    )
    print(f"admission control: {args.max_inflight} in-flight requests")
    if args.leakage:
        print(
            f"access-pattern countermeasures on: {DECOYS} decoy fetches "
            f"per query, padded to a multiple of {PAD_TO}"
        )
    if args.storage:
        print(f"drain persists the hosting to {args.storage}")
    try:
        if args.serve_for is not None:
            time.sleep(args.serve_for)
        else:
            print("press Ctrl-C to drain and stop")
            while True:  # pragma: no cover - interactive loop
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("\ninterrupted: draining")
    finally:
        server.stop()
        system.close()
    print("drained and stopped")
    return 0


#: Master keys ``repro attack`` hosts under (as many as E10's minimum).
_ATTACK_KEYS = 20


def cmd_attack(args: argparse.Namespace) -> int:
    from repro.security.attacks import (
        frequency_attack_over_keys,
        sweep_keys,
    )

    document, constraints = build_workload(args.workload, args.size, args.seed)
    # One key's draw says little: whether a scaled OPESS count lands on a
    # unique plaintext frequency is a coincidence of the key.  Score the
    # claims for correctness, over many keys.
    tallies = frequency_attack_over_keys(
        document, constraints, sweep_keys(_ATTACK_KEYS)
    )
    for field, by_design in tallies.items():
        naive, opess = by_design["strawman"], by_design["opess"]
        print(
            f"{field}: strawman correctly cracked "
            f"{naive.correct_fraction:.2f} of {naive.domain_size} values; "
            f"OPESS {opess.correct}/{opess.claimed} claims right over "
            f"{opess.hostings} keys ({opess.chance:.1f} expected from "
            f"picking a ciphertext at random)"
        )

    # Third security tier: access-pattern trace attribution, with and
    # without the fetch countermeasures (see repro.security.leakage),
    # scored off one run of one hosting.
    from repro.security.leakage import run_leakage_game
    from repro.workloads.queries import QueryWorkload

    queries = [
        query
        for queries in QueryWorkload(
            document, seed=args.seed, per_class=2
        ).by_class().values()
        for query in queries
    ][:6]
    system = SecureXMLSystem.host(
        document, constraints, scheme="opt", leakage=True
    )
    unprotected, protected = run_leakage_game(
        system, queries, repeats=3, seed=args.seed
    )
    print()
    print(f"unprotected traces: {unprotected.describe()}")
    print(f"countermeasures on: {protected.describe()}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.security.analysis import audit_system

    document, constraints = build_workload(args.workload, args.size, args.seed)
    system = SecureXMLSystem.host(
        document, constraints, scheme=args.scheme,
        master_key=_master_key(args),
    )
    report = audit_system(system, document)
    print(report.render())
    return 0 if not report.any_value_cracked else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure query evaluation over encrypted XML databases "
        "(Wang & Lakshmanan, VLDB 2006)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="Figure 2 end-to-end demo")
    demo.set_defaults(handler=cmd_demo)

    host = subparsers.add_parser("host", help="host a workload, print stats")
    _add_workload_arguments(host)
    host.add_argument(
        "--save", default=None, metavar="DIR",
        help="persist the hosting to a directory",
    )
    host.set_defaults(handler=cmd_host)

    query = subparsers.add_parser("query", help="run one secure query")
    _add_workload_arguments(query)
    query.add_argument(
        "--load", default=None, metavar="DIR",
        help="query a previously saved hosting instead of generating one",
    )
    query.add_argument("xpath", help="the XPath query to evaluate")
    query.set_defaults(handler=cmd_query)

    schemes = subparsers.add_parser(
        "schemes", help="compare scheme granularities"
    )
    _add_workload_arguments(schemes)
    schemes.set_defaults(handler=cmd_schemes)

    trace = subparsers.add_parser(
        "trace", help="run one query, print its span tree"
    )
    _add_workload_arguments(trace)
    trace.add_argument("xpath", help="the XPath query to trace")
    trace.set_defaults(handler=cmd_trace)

    explain = subparsers.add_parser(
        "explain", help="print a query's compiled plan (no round-trip)"
    )
    explain.add_argument("xpath", help="the XPath query to explain")
    explain.set_defaults(handler=cmd_explain)

    stats = subparsers.add_parser(
        "stats", help="run a workload, export observability stats"
    )
    _add_workload_arguments(stats)
    stats.add_argument(
        "--per-class", type=int, default=3, dest="per_class",
        help="queries generated per §7.1 query class",
    )
    stats.add_argument(
        "--format", choices=("table", "json", "prometheus"),
        default="table", help="export format",
    )
    stats.set_defaults(handler=cmd_stats)

    serve = subparsers.add_parser(
        "serve", help="host a workload behind the socket serving layer"
    )
    _add_workload_arguments(serve)
    serve.add_argument(
        "--host", default="127.0.0.1", help="listening address"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="listening port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--tenant", default="default", help="tenant id for the hosting"
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64, dest="max_inflight",
        help="admission-control bound on concurrent in-flight requests",
    )
    serve.add_argument(
        "--storage", default=None, metavar="DIR",
        help="persist the hosting to DIR on drain",
    )
    serve.add_argument(
        "--leakage", action="store_true",
        help="turn the access-pattern countermeasures on (decoy and "
        "padding fetches; answers are byte-identical either way)",
    )
    serve.add_argument(
        "--serve-for", type=float, default=None, dest="serve_for",
        metavar="SECONDS",
        help="serve for a fixed duration then drain (default: until ^C)",
    )
    serve.set_defaults(handler=cmd_serve)

    attack = subparsers.add_parser(
        "attack", help="frequency attack vs the defences"
    )
    _add_workload_arguments(attack)
    attack.set_defaults(handler=cmd_attack)

    audit = subparsers.add_parser(
        "audit", help="full security audit of a hosting"
    )
    _add_workload_arguments(audit)
    audit.set_defaults(handler=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
