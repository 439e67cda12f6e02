"""Child processes started by the tests import the same sylowbranch as the tests.

pytest's `pythonpath` setting reaches only its own process, so the directory
the package was imported from is put in front of PYTHONPATH for the CLI
subprocesses as well.
"""

import os

import sylowbranch

_root = os.path.dirname(os.path.dirname(os.path.abspath(sylowbranch.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_root, os.environ.get("PYTHONPATH")) if path
)
