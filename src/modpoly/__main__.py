"""Run the command line front end as ``python -m modpoly``."""

from .io_cli import main

if __name__ == "__main__":
    main()
