"""docs/API.md stays in sync with the code."""

import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def renderer():
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        import gen_api_index
    finally:
        sys.path.pop(0)
    return gen_api_index


class TestApiIndex:
    def test_committed_index_is_fresh(self, renderer):
        with open(
            os.path.join(REPO_ROOT, "docs", "API.md"), encoding="utf-8"
        ) as handle:
            committed = handle.read()
        assert committed == renderer.render(), (
            "docs/API.md is stale; run `python tools/gen_api_index.py`"
        )

    def test_every_listed_module_contributes(self, renderer):
        rendered = renderer.render()
        for module_name in renderer.MODULES:
            assert f"## `{module_name}`" in rendered, module_name

    def test_no_undocumented_public_symbols(self, renderer):
        rendered = renderer.render()
        assert "(undocumented)" not in rendered

    @pytest.mark.parametrize(
        "argv, code", [(["--help"], 0), (["--no-such-flag"], 2)]
    )
    def test_arguments_never_reach_the_writer(
        self, renderer, monkeypatch, capsys, argv, code
    ):
        """``--help`` prints usage and an unknown flag is a usage error;
        neither renders nor writes docs/API.md."""

        def no_render():
            raise AssertionError("render() ran")

        monkeypatch.setattr(renderer, "render", no_render)
        with pytest.raises(SystemExit) as exit_info:
            renderer.main(argv)
        assert exit_info.value.code == code
        captured = capsys.readouterr()
        assert "usage: " in captured.out + captured.err
