"""Metadata exchange and AMPERe replays (Sections 5-6, Figures 9-10).

Demonstrates the stand-alone-optimizer architecture end to end:

1. serialize the catalog's metadata to a DXL file;
2. parse that file back into a schema-and-statistics-only catalog and
   optimize against it — no live database involved;
3. capture an AMPERe dump for a query (input query + config + the minimal
   metadata it touched) and replay it offline, asserting the replayed
   plan matches the captured one.

Run:  python examples/metadata_exchange.py
"""

import tempfile
from pathlib import Path

from repro import Orca, OptimizerConfig
from repro.dxl import parse_document, parse_metadata, serialize_metadata, to_string
from repro.verify.ampere import AMPEReDump, capture_dump, plans_match, replay_dump
from repro.workloads import build_populated_db

SQL = """
SELECT i.i_category, count(*) AS n
FROM store_sales ss, item i
WHERE ss.ss_item_sk = i.i_item_sk
GROUP BY i.i_category
ORDER BY n DESC
"""


def main() -> None:
    db = build_populated_db(scale=0.1)
    workdir = Path(tempfile.mkdtemp(prefix="repro-dxl-"))

    # 1. Export metadata to a DXL file.
    metadata_path = workdir / "tpcds_metadata.dxl"
    metadata_path.write_text(
        to_string(serialize_metadata(db)), encoding="utf-8"
    )
    print(f"serialized catalog metadata to {metadata_path} "
          f"({metadata_path.stat().st_size} bytes)")

    # 2. Optimize against the file — the backend is 'offline'.
    offline_db = parse_metadata(
        parse_document(metadata_path.read_text(encoding="utf-8"))
    )
    offline_orca = Orca(offline_db, config=OptimizerConfig(segments=8))
    offline_result = offline_orca.optimize(SQL)
    print(f"\noptimized offline over {len(offline_db.tables())} relations "
          f"read back from the file (no rows behind them)")
    print(offline_result.explain())

    # 3. AMPERe: capture a minimal repro and replay it.
    live_orca = Orca(db, config=OptimizerConfig(segments=8))
    live_result = live_orca.optimize(SQL)
    dump = capture_dump(
        db, SQL, OptimizerConfig(segments=8), expected_plan=live_result.plan
    )
    dump_path = workdir / "repro_dump.dxl"
    dump.save(dump_path)
    print(f"\nAMPERe dump written to {dump_path} "
          f"({dump_path.stat().st_size} bytes)")

    loaded = AMPEReDump.load(dump_path)
    replayed = replay_dump(loaded)
    print(f"replayed offline; plan matches the captured expected plan: "
          f"{plans_match(loaded, replayed)}")

    # The dump doubles as a regression test case: replaying under a
    # different configuration flips the plan and fails the comparison.
    tweaked = replay_dump(
        loaded,
        OptimizerConfig(segments=8).with_disabled("InnerJoin2HashJoin"),
    )
    print(f"replayed with hash joins disabled; plans match: "
          f"{plans_match(loaded, tweaked)}  (expected: False)")


if __name__ == "__main__":
    main()
