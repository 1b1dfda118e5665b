"""Frozen reference implementations the differential suites compare against.

Code here is a verbatim copy of a route ``src/`` no longer takes, kept only
so a test can assert that its replacement gives the same answers.  Never
import it from ``src/``.
"""
