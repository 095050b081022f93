"""raycrawl/wire.py: the IPC buffers the crawl's actors exchange
tables as. A slice must round-trip exactly (schema included) and ship
only its own rows; an empty table keeps its schema and one chunk
per column."""

import pyarrow as pa

from raycrawl import wire
from raycrawl.corpus import default_seeds
from raycrawl.pipelines.crawl import build_frontier_rows
from raycrawl.schemas import FRONTIER_SCHEMA


def _two_chunk_frontier() -> pa.Table:
    seeds = default_seeds(2)
    t = pa.concat_tables(
        [
            build_frontier_rows(seeds, base_ts=1_000),
            build_frontier_rows(seeds, base_ts=2_000, depth=1),
        ]
    )
    assert t.column("url").num_chunks == 2
    return t


def test_sliced_two_chunk_table_round_trips():
    t = _two_chunk_frontier()
    n = t.num_rows
    # offset > 0 and spanning the chunk boundary
    part = t.slice(1, n - 2)
    back = wire.load(wire.dump(part))
    assert back.schema == FRONTIER_SCHEMA
    assert back.schema.field("url_hash").type == pa.binary(20)
    assert back.equals(part)


def test_slice_ships_only_its_rows():
    t = _two_chunk_frontier()
    k = max(1, t.num_rows // 4)
    assert wire.dump(t.slice(0, k)).size < wire.dump(t).size


def test_empty_table_keeps_schema():
    back = wire.load(wire.dump(FRONTIER_SCHEMA.empty_table()))
    assert back.num_rows == 0
    assert back.schema == FRONTIER_SCHEMA
    # one (empty) chunk per column, as a non-empty single-batch table
    assert all(c.num_chunks == 1 for c in back.columns)
