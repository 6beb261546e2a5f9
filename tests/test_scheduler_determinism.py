"""Scheduler determinism: a search depends on its inputs, not its caller.

The job scheduler is serial, so for a fixed catalog, statement and
config the sequence of job steps is fixed.  What may still vary between
two runs is the process around them: which thread calls the optimizer
(sessions may be called from threads, and the ledger's fleet clients
call it from worker threads) and what earlier optimizations left in the process-wide
intern tables.  Neither may change the plan, the Memo group / group
expression counts or the abandoned alternatives.

Every invariant is checked with cost-bound pruning both enabled (the
default) and disabled.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.workloads import queries_by_id

from tests.conftest import make_small_db
from tests.test_differential import QueryGenerator

SMALL_DB_SQL = [QueryGenerator(seed).generate() for seed in range(300, 308)]
TPCDS_IDS = ["star_brand", "demo_promo"]

PRUNING = pytest.mark.parametrize(
    "pruning", [True, False], ids=["pruned", "exhaustive"]
)


@pytest.fixture(scope="module")
def det_db():
    return make_small_db(t1_rows=1200, t2_rows=250)


def _optimize(db, sql, pruning=True):
    config = OptimizerConfig(segments=8, enable_cost_bound_pruning=pruning)
    return Orca(db, config=config).optimize(sql)


def _optimize_on_thread(db, sql, pruning=True):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(_optimize, db, sql, pruning).result()


def _assert_same_search(a, b, label):
    assert a.explain() == b.explain(), label
    assert a.plan.cost == b.plan.cost, label
    for field in ("num_groups", "num_gexprs", "pruned_alternatives"):
        assert getattr(a.search_stats, field) == getattr(
            b.search_stats, field
        ), (label, field)


@PRUNING
@pytest.mark.parametrize("sql", SMALL_DB_SQL, ids=range(len(SMALL_DB_SQL)))
def test_serial_vs_threaded_identical(det_db, sql, pruning):
    _assert_same_search(
        _optimize(det_db, sql, pruning),
        _optimize_on_thread(det_db, sql, pruning),
        sql,
    )


@PRUNING
@pytest.mark.parametrize("query_id", TPCDS_IDS)
def test_serial_vs_threaded_identical_tpcds(tpcds_db, query_id, pruning):
    sql = queries_by_id()[query_id].sql
    _assert_same_search(
        _optimize(tpcds_db, sql, pruning),
        _optimize_on_thread(tpcds_db, sql, pruning),
        query_id,
    )


@PRUNING
def test_threaded_runs_are_self_consistent(det_db, pruning):
    """Two runs on two different worker threads agree with each other
    (not just with the main-thread run)."""
    sql = SMALL_DB_SQL[0]
    _assert_same_search(
        _optimize_on_thread(det_db, sql, pruning),
        _optimize_on_thread(det_db, sql, pruning),
        sql,
    )


#: Per corpus query: the serial ``job_log`` as ``[(job_id, kind,
#: depends_on), ...]`` (its length and sha1), the root plan's cost, and
#: the costed and pruned alternative counts.  The log digests were
#: recorded at the commit before job ids moved onto the job and requests
#: became integer ids.  A change that renumbers jobs, reorders steps or
#: rewires a dependency edge -- i.e. changes the DAG ``simulate_makespan``
#: sees -- fails here even when plans still agree; so does one that costs
#: or prunes a different set of alternatives.
JOB_LOG_PINS = {
    "avg_price_corr_subquery": (
        354, "32b3f2b8fdc1d8ddf7ab6fe24c3b7c89d1d9870b",
        17047.506132486946, 56, 12,
    ),
    "brand_having": (
        353, "1b37eaba840205b15d1b96e9d5f817f15359420b",
        34153.652789062224, 49, 23,
    ),
    "case_counts": (
        410, "24feef95861e98d1b729accd607aa95be81643ad",
        2354.48782388597, 69, 14,
    ),
    "category_by_day": (
        1091, "e4eddbec65abd24a96cf291108bb66108c93c3c1",
        3337.2352378012633, 147, 78,
    ),
    "category_rollup": (
        1049, "d93be5651ee3cefb0952af917393c19f7bac8aef",
        12501.152713360958, 146, 62,
    ),
    "channel_except": (
        337, "b4e2bb1254afd776327900877ecab7116d8761a7",
        4638.499458943348, 60, 4,
    ),
    "channel_intersect": (
        539, "7116135411b8db4c6c7594a0593ffc35c5558644",
        9044.084760913738, 98, 18,
    ),
    "channel_union": (
        391, "99addfa321ab38f000f4d97e866ff16248f3e6aa",
        989.288675819312, 58, 20,
    ),
    "class_ratio_window": (
        1248, "9e1fdf7d78eb7becd96d0edbc361b993b2701c5d",
        1340.426620106479, 184, 86,
    ),
    "cross_channel_ratio": (
        689, "ea57e38662f49f06935a344a1b9a88ecf6b691cb",
        3971.441617094618, 112, 27,
    ),
    "cte_frequent_items": (
        588, "aa32fdd86661860345a2349198248ccdce0353b4",
        58971.156817259056, 88, 30,
    ),
    "cte_year_totals": (
        703, "b0d29223124c94ff8600c199264d40a5273a8d08",
        45288.69343323047, 117, 23,
    ),
    "customer_channels": (
        1122, "c223b5a6867bdb3978f2df31a6beebb0c241069f",
        5164.420123195792, 175, 87,
    ),
    "demo_promo": (
        2372, "b9f96bdbaba978d0eb4cd54197fbfbe65e8efc55",
        1149.0755649943533, 281, 329,
    ),
    "disjunctive_demo": (
        672, "fc71c543d9d0d30fbfd8dd6824457309c1a207dc",
        948.091032615543, 83, 115,
    ),
    "dpe_quarter": (
        479, "08c588e63c84faa0ccaccaaa76b7ef6399f725cb",
        2944.6901802289503, 84, 22,
    ),
    "exists_customers": (
        1466, "0a2816e2e2b518936a10dcf6996cea74662891df",
        15135.587375128378, 243, 66,
    ),
    "in_subquery_items": (
        1174, "3bb296cc6888cba00dbde150dae82d8adb2e1e1b",
        3843.622373381924, 171, 96,
    ),
    "income_band_rollup": (
        756, "f1522898191bd092533c85327bbd2c72140c0acb",
        1036.435055155231, 112, 70,
    ),
    "inventory_item": (
        1310, "01fc778d193efe538261579a6999542e5b3d6c77",
        548.6485143817182, 216, 103,
    ),
    "left_join_returns": (
        536, "12bc8a7598b108b268d7218d49d9bca164551837",
        2031.3982947152747, 91, 40,
    ),
    "monthly_seq_window": (
        1129, "5f7dcedd1a8711ff03ffe92700485e071568925e",
        15738.870328850237, 156, 81,
    ),
    "multi_fact_join": (
        4920, "e631640c59bf52790e76f8e646347972c3f7b253",
        8043.441923542652, 581, 594,
    ),
    "nonequi_inventory": (
        1951, "0f84d4d7b1b17d8da599673278ea5af79dbdc62c",
        1758.9982228292708, 225, 249,
    ),
    "not_exists_returns": (
        406, "ba253f905aaf93b01a6d650990c0c37a7221c03a",
        11894.404935296294, 69, 17,
    ),
    "rank_profit_window": (
        154, "542c32c2a6f353e6be70bc6b80cda31f15352177",
        2577.268689808309, 24, 5,
    ),
    "returns_reason": (
        963, "7390b6931b51fd3f5d1e174307376a6d9b5131ac",
        1330.8682396845745, 132, 93,
    ),
    "scalar_totals": (
        273, "010945cac8a16992ac7fece258e814a4e1e8e837",
        2143.823519237301, 46, 12,
    ),
    "star_brand": (
        851, "17d13dfdded0acba5c4f679a18da453ff5907cd9",
        488.2735288334199, 106, 99,
    ),
    "store_revenue_vs_avg": (
        482, "ff90fea52ea121b6aff87776bcfe61d75967d966",
        16089.171542143089, 74, 7,
    ),
    "topn_profit": (
        353, "d10c133177b5d551b7bdadef63c69d8e489cdc17",
        10548.656491429403, 61, 15,
    ),
    "zip_group": (
        2287, "98be4df5588ef8c4dd975a254173647bf298b611",
        9106.767836578803, 319, 186,
    ),
}


@pytest.mark.parametrize("query_id", sorted(JOB_LOG_PINS))
def test_job_log_sequence_is_pinned(tpcds_db, query_id):
    result = _optimize(tpcds_db, queries_by_id()[query_id].sql)
    stats = result.search_stats
    log = [
        (rec.job_id, rec.kind, list(rec.depends_on))
        for rec in stats.job_log
    ]
    digest = hashlib.sha1(json.dumps(log).encode()).hexdigest()
    assert (
        len(log), digest, result.plan.cost,
        stats.costed_alternatives, stats.pruned_alternatives,
    ) == JOB_LOG_PINS[query_id]


def test_every_corpus_query_is_pinned():
    assert sorted(JOB_LOG_PINS) == sorted(queries_by_id())
