"""``python -m proxrank2 <command>``: the command-line interface."""
from .cli import main

raise SystemExit(main())
