import pytest


@pytest.fixture(autouse=True)
def private_parse_cache(tmp_path_factory, monkeypatch):
    """Each test gets its own, empty CLI parse cache, outside its tmp_path.

    The CLI keeps the models and scenes it writes under $XDG_CACHE_HOME, and
    commands run in a new process inherit the variable, so no test reads or
    writes the user's cache, and no test's files show up in another's.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
