"""Test oracle for materialization: the label-keyed path.

``csplab.sieve.action_from_objects`` encodes each object once and keys its
index by the object, so ``step`` must return canonical objects.  This module
materializes the slow way instead: it encodes every object for the sort and
encodes every image again, looking it up by label.  Only the labels have to
be canonical here, so the two paths agree exactly when the family's step
returns the enumerated objects themselves.
"""

from csplab import sieve
from csplab.errors import PreconditionError


def label_keyed_action(objects, step, encode, order) -> sieve.CyclicAction:
    """The action with its generator found through the labels of the images."""
    pairs = sorted(((encode(o), o) for o in objects), key=lambda p: p[0])
    labels = tuple(e for e, _ in pairs)
    index = {e: i for i, e in enumerate(labels)}
    if len(index) != len(pairs):
        raise PreconditionError("encodings are not injective")
    try:
        gen = tuple(index[encode(step(o))] for _, o in pairs)
    except KeyError as exc:
        raise PreconditionError(f"generator leaves the set: {exc}") from exc
    return sieve.CyclicAction(labels, gen, order)
