"""Run the command-line interface as ``python -m regcrystals ARGS``."""

from .cli import run

if __name__ == "__main__":
    run()
