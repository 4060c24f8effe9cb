import os
from pathlib import Path

from hypothesis import settings

# exact-arithmetic examples can be slow on cold caches; determinism of the
# whole suite matters more than per-example wall-clock enforcement
settings.register_profile("exact", deadline=None, derandomize=True)
settings.load_profile("exact")


def child_env(**extra: str) -> dict[str, str]:
    """The minimal environment of a child interpreter: PATH, and PYTHONPATH
    set so that it imports the supervir this test run imported, installed
    or not; PYTHONDONTWRITEBYTECODE passes through when this run has it,
    so that a child writes no bytecode cache either."""
    import supervir

    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(supervir.__file__).resolve().parent.parent), **extra}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env
