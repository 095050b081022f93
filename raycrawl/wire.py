"""Arrow tables across the crawl's Ray calls, as IPC stream buffers.

Ray serializes a ``pa.Table`` argument or return value through its own
reducer, which imports ``ray.air`` (and with it pandas and ``ray.data``)
the first time a process sends or receives one: ~0.5 s of CPU in every
fresh shard and worker actor, paid inside the crawl. A ``pa.Buffer``
pickles as one out-of-band buffer instead, so the crawl's actor methods
exchange tables as the buffers below.
"""

from __future__ import annotations

import pyarrow as pa


def dump(table: pa.Table) -> pa.Buffer:
    """``table`` as an Arrow IPC stream. IPC writes only the rows a
    slice covers (pickling a sliced array ships its whole parent,
    ARROW-10739), so ``t.slice(0, k)`` costs k rows on the wire. An
    empty table is written as one empty batch, so it loads with one
    chunk per column like every other table here, not zero."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        if table.num_rows:
            writer.write_table(table)
        else:
            writer.write_batch(
                pa.RecordBatch.from_pylist([], schema=table.schema)
            )
    return sink.getvalue()


def load(buf: pa.Buffer) -> pa.Table:
    """The table ``dump`` wrote. Its columns view ``buf``, so a buffer
    read from the object store is not copied."""
    return pa.ipc.open_stream(buf).read_all()
