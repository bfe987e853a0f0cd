"""Snapshot memoization: canonical encoding, memo-tables, persistence."""
