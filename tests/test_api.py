import inspect
import re
from pathlib import Path

import gapline

# Exported without a caller yet, each kept for the ROADMAP item that wires it
# into `verify`.  Once that caller lands the name leaves this set.
AWAITING_CALLER = {
    # "Certify the caterpillar rows in exact arithmetic" (item 1).
    "two_lobe_trial_state",
    # "verify checks every bound family gapline ships" (item 2).
    "endgame_bound",
}


def test_every_public_name_has_a_caller():
    """Each function and class in gapline.__all__ is named somewhere in the
    package besides its own def or class line and __init__.py."""
    lines = [
        line
        for path in sorted(Path(gapline.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]
    uncalled = set()
    for name in gapline.__all__:
        obj = getattr(gapline, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class) {name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            uncalled.add(name)
    assert uncalled == AWAITING_CALLER
