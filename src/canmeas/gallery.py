"""Small named examples used by documentation, self tests, and demos.

The two stock degenerations keep one edge of unit length while the
remaining edges shrink linearly in t toward prescribed normalized
coordinates; both have closed-form canonical measures, which makes them
good calibration targets.
"""

from __future__ import annotations

from fractions import Fraction

from .corpus import layered_family
from .degeneration import LengthFamily
from .errors import FamilyError
from .graphs import AugmentedGraph
from .layerings import OrderedPartition
from .periods import ModelPeriodFamily, layered_period_family


def theta_graph(genus: tuple[int, int] = (0, 0)) -> AugmentedGraph:
    """Two vertices joined by three parallel edges."""
    return AugmentedGraph(
        vertices=("u", "v"),
        edges=(("e1", ("u", "v")), ("e2", ("u", "v")), ("e3", ("u", "v"))),
        genus={"u": genus[0], "v": genus[1]},
    )


def triangle_graph(genus: tuple[int, int, int] = (0, 0, 0)) -> AugmentedGraph:
    """Three vertices joined in a cycle."""
    return AugmentedGraph(
        vertices=("v1", "v2", "v3"),
        edges=(("e1", ("v2", "v3")), ("e2", ("v1", "v3")), ("e3", ("v1", "v2"))),
        genus={"v1": genus[0], "v2": genus[1], "v3": genus[2]},
    )


# e1 alone in the first layer, e2 and e3 in the second.
_SPLIT = OrderedPartition(parts=(frozenset({"e1"}), frozenset({"e2", "e3"})))


def theta_family(x2=Fraction(1, 2), x3=Fraction(1, 2)) -> LengthFamily:
    """Theta graph with lengths (1, x2*t, x3*t)."""
    return layered_family(theta_graph(), _SPLIT, {"e1": 1, "e2": x2, "e3": x3})


def triangle_family(x2=Fraction(1, 2), x3=Fraction(1, 2)) -> LengthFamily:
    """Triangle with lengths (1, x2*t, x3*t); its measure limit puts all
    mass on the surviving loop edge."""
    return layered_family(triangle_graph(), _SPLIT, {"e1": 1, "e2": x2, "e3": x3})


def theta_period_family(
    exponents: tuple[int, int] = (2, 1),
    genus: tuple[int, int] = (0, 0),
    vertex_blocks=None,
) -> ModelPeriodFamily:
    """Layered theta period model with lengths y_j(t) * x_e.

    Layer scales are t^-exponents[j]; coordinates are x = (1, 1/2, 1/2).
    With positive vertex genera, ``vertex_blocks`` (default identity)
    fills the pad of the base matrix.
    """
    a1, a2 = exponents
    if a1 <= a2:
        raise FamilyError("layer scales must decrease strictly")
    g = theta_graph(genus)
    half = Fraction(1, 2)
    family = layered_family(g, _SPLIT, {"e1": 1, "e2": half, "e3": half}, (-a1, -a2))
    return layered_period_family(family, vertex_blocks=vertex_blocks)
