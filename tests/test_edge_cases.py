"""Refusals and empty results that the example and oracle tests do not reach."""

import pytest

from conftest import cached_embed
from hbgraphs import stern
from hbgraphs.blocks import maximal_checking_paths_from
from hbgraphs.cli import check_range
from hbgraphs.words import even_core


def test_no_maximal_checking_path_from_an_arc_that_extends_backwards():
    # 122 -> 202 can be prepended to 202 -> 1002 as a checking path
    pg = cached_embed(10)
    e1 = pg.graph.arc(pg.graph.index["202"], pg.graph.index["1002"])
    assert maximal_checking_paths_from(pg, e1) == []


def test_even_core_rejects_negative_n():
    with pytest.raises(ValueError, match="nonnegative"):
        even_core(-1)


def test_check_range_reports_a_structural_disagreement(monkeypatch):
    b_and_a = stern.b_and_a
    monkeypatch.setattr(stern, "b_and_a", lambda n: (b_and_a(n)[0], b_and_a(n)[1] + 1))
    assert check_range(0, 4) == ("n=0 structural disagreement: graph (a=0, v=0)"
                                 " vs recursion (a=1, v=1)")
