"""``python -m floqep``: the ``floqep`` command line, also from an uninstalled checkout."""
from .cli import main

raise SystemExit(main())
