"""One comparable image of a call's outcome, for the tests that pin a
rewritten function bit for bit against a reference copy of its old body
(`test_plane.py`, `test_helpers_against_reference.py`)."""

import struct


def image(v):
    """A float by its bit pattern (-0.0 and 0.0 differ, and a NaN keeps its
    sign and payload), a tuple or list by its class and elements, a dict by
    its items, anything else as itself."""
    if isinstance(v, float):
        return "float", struct.pack("<d", v)
    if isinstance(v, (tuple, list)):
        return v.__class__, tuple(image(e) for e in v)
    if isinstance(v, dict):
        return tuple((k, image(e)) for k, e in v.items())
    return v


def outcome(fn, *args):
    """``("value", image)`` of what ``fn(*args)`` returns, or ``("raise",
    class, message)`` of what it raises."""
    try:
        return "value", image(fn(*args))
    except Exception as e:   # the exception class and message are compared
        return "raise", type(e), str(e)
