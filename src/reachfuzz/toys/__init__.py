"""The toy target of the packaged demo, ``ppmcheck.py``.

The toy is a plain script executed as a child process; it imports nothing
from this package. It reports executed functions through the trace protocol:
one function name per line appended to the file named by the
``RF_TRACE_FILE`` environment variable. The demo copies it into its corpus
and runs it; the test suite runs it too.
"""

from importlib import resources
from pathlib import Path


def toy_path(name: str) -> Path:
    """Filesystem path of a shipped toy target script."""
    return Path(str(resources.files(__name__) / f"{name}.py"))
