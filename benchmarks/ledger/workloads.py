"""The ledger's four workloads: statements, literal pools, sizes, reasons.

The names are fixed; issues and reviews cite them.  A *round* is one
seeded shuffle of a workload's statement list.  The program under test
sees only the generated SQL text and the generated database; the seed
drives the shuffles, the literal draws and the fleet clients' request
streams, never the data, so ``sim_exec_s`` does not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.workloads import QUERIES

#: Streaming-dominated statements the corpus lacks: three breaker-free
#: chains and three motion-free grouped scans (every group key is the
#: fact table's distribution key).  They are what the fused compiler and
#: the morsel pool were built for, so ``scan_heavy`` carries them.
ENGINE_STATEMENTS = {
    "filter_project": (
        "SELECT ss_quantity * 2 + 1 FROM store_sales "
        "WHERE ss_quantity > 10 AND ss_sales_price > 50.0"
    ),
    "probe_agg": (
        "SELECT i_category, count(*), sum(ss_sales_price) "
        "FROM store_sales, item WHERE ss_item_sk = i_item_sk "
        "GROUP BY i_category"
    ),
    "two_join_probe": (
        "SELECT count(*) FROM store_sales, item, date_dim "
        "WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk"
    ),
    "grouped_scan": (
        "SELECT ss_item_sk, count(*) AS n, sum(ss_sales_price) AS rev, "
        "avg(ss_ext_sales_price) AS avg_ext, min(ss_net_profit) AS lo, "
        "max(ss_net_profit) AS hi FROM store_sales "
        "WHERE ss_quantity > 1 GROUP BY ss_item_sk"
    ),
    "colocated_join_agg": (
        "SELECT ss_item_sk, count(*) AS n, sum(ss_sales_price) AS rev, "
        "avg(ss_net_profit) AS avg_np FROM store_sales, item "
        "WHERE ss_item_sk = i_item_sk GROUP BY ss_item_sk"
    ),
    "grouped_scan_catalog": (
        "SELECT cs_item_sk, count(*) AS n, sum(cs_sales_price) AS rev, "
        "avg(cs_net_profit) AS avg_np, max(cs_ext_sales_price) AS hi "
        "FROM catalog_sales WHERE cs_quantity > 0 GROUP BY cs_item_sk"
    ),
}

#: corpus id -> (text as it stands in the corpus, template, values).
#: The first value is the corpus's own literal, so the base text is the
#: corpus text.  Every redraw keeps the statement's shape, which is what
#: makes it a plan-cache *rebind* and not a miss.
LITERAL_POOLS = {
    "star_brand": ("i.i_manufact_id = 52", "i.i_manufact_id = {}", (52, 7, 23, 41)),
    "category_by_day": ("d.d_moy = 12", "d.d_moy = {}", (12, 3, 7, 10)),
    "dpe_quarter": ("d.d_qoy = 1", "d.d_qoy = {}", (1, 2, 3, 4)),
    "topn_profit": ("d.d_moy = 6", "d.d_moy = {}", (6, 2, 9, 11)),
    "in_subquery_items": (
        "i2.i_color = 'red'", "i2.i_color = '{}'", ("red", "blue", "green", "black"),
    ),
    "scalar_totals": (
        "i.i_category = 'Music'", "i.i_category = '{}'",
        ("Music", "Books", "Toys", "Shoes"),
    ),
    "nonequi_inventory": (
        "i.i_category = 'Books'", "i.i_category = '{}'",
        ("Books", "Home", "Men", "Women"),
    ),
    "zip_group": ("d.d_qoy = 2", "d.d_qoy = {}", (2, 1, 3, 4)),
    "not_exists_returns": ("d.d_qoy = 3", "d.d_qoy = {}", (3, 1, 2, 4)),
    "store_revenue_vs_avg": ("agg.revenue > 900", "agg.revenue > {}", (900, 700, 800, 1000)),
}


@dataclass(frozen=True)
class Statement:
    name: str
    #: All texts this statement may be sent as; ``texts[0]`` is the base.
    texts: tuple


def _corpus(redraw: bool) -> tuple:
    out = []
    for query in QUERIES:
        texts = [query.sql]
        if redraw and query.id in LITERAL_POOLS:
            old, template, values = LITERAL_POOLS[query.id]
            if query.sql.count(old) != 1:
                raise ValueError(f"literal {old!r} is not unique in corpus query {query.id}")
            texts = [query.sql.replace(old, template.format(v)) for v in values]
        out.append(Statement(query.id, tuple(texts)))
    if redraw:
        missing = set(LITERAL_POOLS) - {q.id for q in QUERIES}
        if missing:
            raise ValueError(f"literal pools name unknown corpus queries: {sorted(missing)}")
    return tuple(out)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why this workload exists: which layers carry it, and what it is
    #: the control for.  Printed in every report.
    why: str
    scale: float
    #: Keyword arguments of ``repro.connect`` / ``repro.connect_fleet``.
    connect: dict
    statements: tuple
    #: Rounds (session workloads) in a full-length run without
    #: ``--seconds``; fleet workloads use ``requests_per_client``.
    rounds: int = 0
    #: 0: one ``Session``; otherwise a ``Fleet`` with this many workers.
    fleet_workers: int = 0
    clients: int = 1
    requests_per_client: int = 0
    #: Client 0 calls ``fleet.bump_catalog()`` every this many requests.
    bump_every: int = 0
    #: Extra session configurations the traced run interleaves with the
    #: default one, round by round: label -> connect overrides.
    traced_variants: dict = field(default_factory=dict)

    def all_texts(self) -> list[str]:
        return [text for stmt in self.statements for text in stmt.texts]

    def round(self, rng: random.Random) -> list[tuple[str, str]]:
        """One seeded shuffle: (statement name, SQL text) pairs, each
        pooled statement redrawing its literal."""
        order = list(self.statements)
        rng.shuffle(order)
        return [(s.name, rng.choice(s.texts)) for s in order]


_ENGINE = tuple(Statement(name, (sql,)) for name, sql in ENGINE_STATEMENTS.items())

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="adhoc_cold",
            why=(
                "Every statement is fully optimized (plan cache off), so search, stats, "
                "cost, memo and gpos carry ~85% of it; a plan-cache or executor change "
                "must show nothing here."
            ),
            scale=0.1,
            connect={"segments": 8},
            statements=_corpus(redraw=False),
            rounds=28,
            # Tracer(capture_events=False) vs none, for obs.tracer_overhead.
            traced_variants={"tracer": {}},
        ),
        Workload(
            name="repeat_cached",
            why=(
                "Plan cache on and warm, ten statements redraw a literal per round "
                "(rebind), the rest repeat: search is bypassed, so plancache, sql.parse "
                "and engine carry it; a search speed-up predicts no change here."
            ),
            scale=0.1,
            connect={"segments": 8, "enable_plan_cache": True},
            statements=_corpus(redraw=True),
            rounds=130,
        ),
        Workload(
            name="scan_heavy",
            why=(
                "Scale 1.0 (40k-row store_sales), plans cached, corpus plus six "
                "streaming-dominated statements: engine does ~90% of the work, so an "
                "executor change shows here and must leave adhoc_cold flat."
            ),
            scale=1.0,
            connect={"segments": 8, "enable_plan_cache": True},
            statements=_corpus(redraw=False) + _ENGINE,
            rounds=20,
            traced_variants={"parallel": {"parallelism": 2}},
        ),
        Workload(
            name="fleet_mixed",
            why=(
                "Two closed-loop clients through connect_fleet(workers=2) with a catalog "
                "bump every 96 requests: pickle/IPC, routing, the orchestrator lock and "
                "plan-cache stores, stale evictions and shared publishes beside reads."
            ),
            scale=0.1,
            connect={"segments": 8, "enable_plan_cache": True},
            statements=_corpus(redraw=False),
            fleet_workers=2,
            clients=2,
            requests_per_client=1200,
            bump_every=96,
        ),
    )
}
