"""``python -m carousel``: the same command line as the ``carousel`` script."""

from .cli import run

if __name__ == "__main__":
    run()
