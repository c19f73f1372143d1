import pytest

from oddgon.derivation import build_pipeline_diagrams
from oddgon.surface import build_surface


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
