"""Concrete engine backends (serial, shm, simulated)."""
