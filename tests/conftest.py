import concurrent.futures

import pytest


class InlinePool:
    """A stand-in process pool that records its tasks and runs them in-process."""

    def __init__(self, made, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks = list(tasks)
        return map(fn, self.tasks)


@pytest.fixture
def inline_pools(monkeypatch):
    """The pools a test makes, each an InlinePool in place of the process pool."""
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: InlinePool(made, max_workers))
    return made
