"""Frozen copy of the tfqkd modules the speed probe runs.

numerics, channel, constraints, simplex and keyrate are verbatim copies of
src/tfqkd at the commit that defined the benchmark. They are never
benchmarked and never change: bench/speed.py runs a few fixed analyses and
LP exports through them to measure how fast the machine is running the
same kind of code at that moment. Keep them frozen; editing them changes
the scale of every normalized time.
"""
