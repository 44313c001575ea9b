"""``python -m gtsingular``: the command line of gtsingular.cli."""

from .cli import main

raise SystemExit(main())
