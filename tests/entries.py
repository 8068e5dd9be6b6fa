"""Asynchronous posts to an implementation object, as the PO sends them.

An IO takes asynchronous work through one entry point,
``enqueue_batch(entries)``, each entry ``(method, count, columns | None,
rows | None)``.  These helpers build the one-entry requests that tests
post directly: a single call, an aggregate of rows, an aggregate of
argument columns.
"""

from __future__ import annotations


def post(io, method, args=(), kwargs=None):
    """One asynchronous call: an entry of one row."""
    io.enqueue_batch([(method, 1, None, [(tuple(args), dict(kwargs or {}))])])


def post_rows(io, method, rows):
    """One aggregate of ``[(args, kwargs), ...]`` rows."""
    io.enqueue_batch([(method, len(rows), None, list(rows))])


def post_columns(io, method, count, columns):
    """One aggregate of *count* calls as positional argument columns."""
    io.enqueue_batch([(method, count, columns, None)])


def invoke_rows(io, method, rows):
    """One synchronous aggregate of rows; returns the ``ReturnBatch``."""
    return io.invoke_batch(method, len(rows), None, list(rows))
