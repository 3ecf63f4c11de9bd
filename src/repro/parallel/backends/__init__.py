"""Concrete engine backends (serial, threads, shm, simulated)."""
