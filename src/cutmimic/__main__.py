"""`python -m cutmimic`: the same command-line interface as the `cutmimic`
script."""

from .frontend import main

if __name__ == "__main__":
    main()
