import warnings

import pytest

from oddgon.derivation import build_pipeline_diagrams, ksl_window
from oddgon.surface import build_surface


@pytest.hookimpl(tryfirst=True, hookwrapper=True)
def pytest_runtest_makereport():
    """Let a failing Hypothesis test report under `-W error`. The hypothesis
    plugin's own makereport hook raises `DeprecationWarning: mypy_extensions.
    TypedDict is deprecated` while it reports a failure, and as an error that
    ends the session with INTERNALERROR before the falsifying example is
    shown. Only that warning, and only while a report is made, is ignored; an
    ini `filterwarnings` entry cannot do it, as `-W error` is applied after
    it."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
        yield


def window_agrees(got: str, w: str) -> bool:
    """Whether `got` is the derived word of an open trace whose letters are w:
    the rule's window, `ksl_window(w)`, led by w's first letter or not and
    followed by its last letter or not. The rule cannot see past either end
    of w; the flow reads the primed edge there if it crosses it."""
    return got in {h + ksl_window(w) + t for h in ("", w[:1]) for t in ("", w[-1:])}


@pytest.fixture(scope="session")
def pentagon():
    return build_surface(5)


@pytest.fixture(scope="session")
def heptagon():
    return build_surface(7)


class _Pipelines(dict):
    """n -> the full diagram pipeline of build_surface(n), each built once, when first asked for."""

    def __missing__(self, n):
        pipe = self[n] = build_pipeline_diagrams(build_surface(n))
        return pipe


@pytest.fixture(scope="session")
def pipelines(pentagon, heptagon):
    """Full diagram pipelines, expensive, built once per session: the three
    small surfaces up front, any other odd n on its first read."""
    return _Pipelines(
        {
            5: build_pipeline_diagrams(pentagon),
            7: build_pipeline_diagrams(heptagon),
            9: build_pipeline_diagrams(build_surface(9)),
        }
    )
