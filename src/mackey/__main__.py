import sys

try:
    from .cli import main
except KeyboardInterrupt:
    # Ctrl-C while the package still imports, before cli.main's own handler
    print("interrupted", file=sys.stderr)
    sys.exit(130)

sys.exit(main())
