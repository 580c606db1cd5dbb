"""Exact and heuristic scheduling of two-qubit gates onto hardware graphs."""
