"""Benchmark suite for address-allocation schemes on AVL trees stored in
bit-flip-limited (phase-change) memory."""
