"""Architect/Builder block-assembly simulator.

Couples Bayesian library learning over a tower-building DSL with a
cost-sensitive pragmatic speaker that must coordinate word meanings for its
learned abstractions with a literal listener.
"""
