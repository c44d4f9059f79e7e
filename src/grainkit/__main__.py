"""``python -m grainkit``: the ``grainkit`` command line."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
