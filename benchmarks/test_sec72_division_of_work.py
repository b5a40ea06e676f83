"""E2 — §7.2: division of work between client and server.

The paper measured six per-query cost factors and observed that (a) the
query translation times on both sides are negligible, (b) transmission is
negligible on a LAN, and (c) decryption cost is the largest of the three
client/server processing factors.  This benchmark reproduces the stage
breakdown on the NASA-like database under the opt scheme.
"""

from repro.bench.harness import average_traces, format_table

from conftest import write_result


def _run(nasa_systems, nasa_queries):
    system = nasa_systems["opt"]
    rows = []
    stage_sums = {"t_server": 0.0, "t_decrypt": 0.0, "t_post": 0.0}
    translate_total = 0.0
    transfer_total = 0.0
    for query_class, queries in nasa_queries.items():
        traces = []
        for query in queries:
            # cold: the §7.2 breakdown is per independent query; a warm
            # pipeline (e.g. when another module already exercised the
            # shared systems) collapses the real stages and leaves only
            # the modelled transfer time.
            system.flush_caches()
            system.query(query)
            traces.append(system.last_trace)
        averaged = average_traces(traces)
        rows.append(
            [
                query_class,
                averaged["t_translate"],
                averaged["t_server"],
                averaged["t_transfer"],
                averaged["t_decrypt"],
                averaged["t_post"],
            ]
        )
        for stage in stage_sums:
            stage_sums[stage] += averaged[stage]
        translate_total += averaged["t_translate"]
        transfer_total += averaged["t_transfer"]
    return rows, stage_sums, translate_total, transfer_total


def test_division_of_work(benchmark, nasa_systems, nasa_queries):
    rows, stage_sums, translate_total, transfer_total = benchmark.pedantic(
        _run, args=(nasa_systems, nasa_queries), rounds=1, iterations=1
    )
    table = format_table(
        ["class", "t_translate", "t_server", "t_transfer(model)",
         "t_decrypt", "t_post"],
        rows,
        "§7.2 — division of work, NASA-like database, opt scheme (seconds)",
    )
    write_result("sec72_division_of_work", table)

    # Wall-clock stages are gated against each other only.  The transfer
    # column is the netsim bandwidth model (bytes over a 100 Mbps pipe),
    # not a measurement: its share of a query moves whenever compute gets
    # faster, so it is reported — ``transfer_total`` against the wall
    # total, in EXPERIMENTS.md E2 — and gated against itself alone, in
    # the bandwidth ablation.
    heavy_total = sum(stage_sums.values())
    assert transfer_total > 0.0
    # Paper: translation "negligible" (they measured ~1/3000 of server
    # time; we assert an order of magnitude conservatively).
    assert translate_total < 0.2 * heavy_total
    # Paper: decryption is the largest factor — on the class that ships
    # encrypted subtrees to the client (Qs), the largest wall stage.
    (qs,) = [row for row in rows if row[0] == "Qs"]
    _, qs_translate, qs_server, _, qs_decrypt, qs_post = qs
    assert qs_decrypt > max(qs_translate, qs_server, qs_post)
    # Paper: the server query processing exceeds client post-processing
    # ("the whole dataset is used ... on the server, while only the
    # relevant data is used on the client").  The two are within a few
    # milliseconds of each other at benchmark scale, so assert with slack.
    assert stage_sums["t_server"] > 0.5 * stage_sums["t_post"]


def test_translation_time_vs_query_size(benchmark, nasa_systems):
    """§7.2's size claim: even a 20-node query translates in milliseconds.

    "even for document size of 50MB and the query of 20 nodes, the
    translation time on client is less than 5ms and the query translation
    time on server is around 13ms".  We grow a descendant chain with value
    predicates up to 20 query nodes and time the client translation.
    """
    import time

    from repro.bench.harness import format_table

    system = nasa_systems["opt"]

    def build_query(node_count: int) -> str:
        # Alternate structural steps and predicates to reach the target
        # node count: //dataset[title]//reference//source//journal...
        steps = ["//dataset[altname]", "//reference", "//source",
                 "//journal", "//author[initial]", "//last"]
        query = ""
        used = 0
        index = 0
        while used < node_count:
            query += steps[index % len(steps)]
            used += 2 if "[" in steps[index % len(steps)] else 1
            index += 1
        return query

    def run():
        rows = []
        for node_count in (2, 5, 10, 15, 20):
            query = build_query(node_count)
            started = time.perf_counter()
            for _ in range(20):
                system.client.translate(query)
            per_translation = (time.perf_counter() - started) / 20
            rows.append([node_count, per_translation * 1000.0])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["query nodes", "translation time (ms)"],
        rows,
        "§7.2 — client translation time vs query size (NASA, opt)",
    )
    write_result("sec72_translation_vs_query_size", table)

    # The paper's claim, with generous slack for pure Python: translating
    # a 20-node query stays in single-digit milliseconds.
    assert rows[-1][1] < 10.0
