"""Deterministic federated-learning simulator for per-slice CPU-load prediction.

Clients train a tiny feedforward regressor on local slice KPIs; the server
picks each round's participants from integrated-gradients feature
attributions, apportioning selection slots across features by importance.
The supported interface is the ``fedslice`` command and the functions of
each ``fedslice.<module>``; the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
