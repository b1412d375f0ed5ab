"""Seeded benchmark of minicas; run it with ``python3 perfbench/run.py``."""
