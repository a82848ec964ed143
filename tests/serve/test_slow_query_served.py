"""Slow-query capture for queries served through ``DatabaseServer``.

Every query reaches ``Database.execute_plan``, which is where slow-query
capture is armed, so a query a session runs is logged exactly like one
run directly — and, because capture counts only the calling thread's
work, two workers capturing at once never trade counters.
"""

import threading
from dataclasses import replace

from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.serve import DatabaseServer

DOC = "<Product><Name>widget {i}</Name><Price>{i}</Price>{tags}</Product>"

#: Two tables whose documents differ in size, so the same query costs
#: QuickXScan a different number of events on each.
TAGS_PER_DOC = {"small": 0, "large": 5}


def make_db(**overrides):
    config = replace(DEFAULT_CONFIG, checkpoint_interval=0,
                     slow_query_events=1, **overrides)
    db = Database(config)
    for table, tags in TAGS_PER_DOC.items():
        db.create_table(table, [("key", "varchar"), ("doc", "xml")])
        for i in range(6):
            db.insert(table, (f"k{i}", DOC.format(
                i=i, tags="<Tag>t</Tag>" * tags)))
    return db


def direct_events(table):
    """``xscan.events`` of one direct, single-threaded run on ``table``."""
    db = make_db()
    db.xpath(table, "doc", "/Product/Name")
    (record,) = db.slow_queries.records()
    return record.counters["xscan.events"]


class TestServedSlowQueries:
    def test_session_queries_are_slow_logged(self):
        db = make_db()
        with DatabaseServer(db) as server:
            with server.session() as session:
                for _ in range(3):
                    rows = session.query("small", "doc", "/Product/Name")
                    assert len(rows) == 6
        records = db.slow_queries.records()
        assert len(records) == 3
        assert db.stats.get("obs.slow_queries") == 3
        for record in records:
            assert record.path == "/Product/Name"
            assert record.rows == 6
            assert "access method:" in record.plan_text
            assert record.root.find("exec.full_scan") is not None
            assert record.root.find("xscan.run") is not None

    def test_concurrent_workers_do_not_cross_attribute(self):
        expected = {table: direct_events(table) for table in TAGS_PER_DOC}
        assert expected["small"] != expected["large"]
        db = make_db(serve_workers=2)
        rounds = 4
        start = threading.Barrier(len(expected))
        errors = []

        def client(table):
            try:
                with server.session() as session:
                    start.wait()
                    for _ in range(rounds):
                        session.query(table, "doc", "/Product/Name")
            except Exception as error:  # noqa: BLE001 - tally any failure
                errors.append(error)

        with DatabaseServer(db) as server:
            threads = [threading.Thread(target=client, args=(table,))
                       for table in expected]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        records = db.slow_queries.records()
        assert len(records) == rounds * len(expected)
        for record in records:
            assert record.counters["xscan.events"] == expected[record.table]
            assert record.exceeded["xscan.events"][0] == \
                expected[record.table]
