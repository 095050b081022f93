"""Arrow tables across the crawl's Ray calls, as IPC stream buffers.

Ray serializes a ``pa.Table`` argument or return value through its own
reducer, which imports ``ray.air`` (and with it ``ray.data``) the first
time a process sends or receives one: ~0.5 s of CPU in every fresh
shard and worker actor, paid inside the crawl. A ``pa.Buffer`` pickles
as one out-of-band buffer instead, so the crawl's actor methods
exchange tables as the buffers below, and ``ray.air`` and ``ray.data``
stay out of those processes.

pyarrow also imports pandas lazily, on a process's first ``pa.array``
(or ``to_numpy``, ``filter``, ``take``, ...): 0.3-0.4 s of CPU that no
buffer format avoids. ``warm`` pays it at actor construction, where
the engine's start-up barrier waits for it, so the first offer or
batch of a crawl does not.
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


def warm() -> None:
    """Finish pyarrow's lazy pandas import now (``pa.array`` imports
    pandas and ``pyarrow.pandas_compat`` on first use in a process).
    Crawl actors call it at the end of ``__init__``."""
    pa.array([])
