"""The repository's end-to-end benchmark; run ``e2ebench/run.py``."""
