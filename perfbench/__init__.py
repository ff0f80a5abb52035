"""Benchmark of the FedClust reproduction; entry point ``perfbench/run.py``."""
