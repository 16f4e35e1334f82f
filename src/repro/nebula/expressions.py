"""NebulaStream-style expression framework compiling to Spark Columns.

NebulaStream builds queries from an expression tree that supports
"custom operators and functions through inheritance and composition"
(§2.3). This module reproduces that design: :class:`Expression` nodes
compose through Python operators and compile to Catalyst ``Column``
expressions via :meth:`Expression.to_column`; MEOS-backed nodes compile
to Arrow-vectorised pandas UDFs closing over the MEOS kernels — the
exact structure of the paper's ``MeosAtStbox_Expression``.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

from repro.meos.stbox import STBox
from repro.meos.vectorized import min_zone_distance, nearest_zone, zone_id_at


class Expression:
    """Base expression node. Subclasses implement ``to_column``."""

    def to_column(self) -> Column:
        raise NotImplementedError

    # ---- composition --------------------------------------------------
    def _bin(self, other, op):
        return BinaryExpression(op, self, _wrap(other))

    def __add__(self, other):
        return self._bin(other, "+")

    def __sub__(self, other):
        return self._bin(other, "-")

    def __mul__(self, other):
        return self._bin(other, "*")

    def __truediv__(self, other):
        return self._bin(other, "/")

    def __gt__(self, other):
        return self._bin(other, ">")

    def __ge__(self, other):
        return self._bin(other, ">=")

    def __lt__(self, other):
        return self._bin(other, "<")

    def __le__(self, other):
        return self._bin(other, "<=")

    def eq(self, other):
        return self._bin(other, "==")

    def ne(self, other):
        return self._bin(other, "!=")

    def __and__(self, other):
        return self._bin(other, "&")

    def __or__(self, other):
        return self._bin(other, "|")

    def __invert__(self):
        return NotExpression(self)


def _wrap(v) -> "Expression":
    return v if isinstance(v, Expression) else Literal(v)


class FieldAccess(Expression):
    """Reference to a stream attribute by name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def to_column(self) -> Column:
        return F.col(self.name)

    def __repr__(self) -> str:
        return f"Field({self.name})"


class Literal(Expression):
    """Constant value."""

    def __init__(self, value) -> None:
        self.value = value

    def to_column(self) -> Column:
        return F.lit(self.value)

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
}


class BinaryExpression(Expression):
    """Arithmetic/comparison/boolean composition of two expressions."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op, self.left, self.right = op, left, right

    def to_column(self) -> Column:
        return _OPS[self.op](self.left.to_column(), self.right.to_column())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class NotExpression(Expression):
    def __init__(self, inner: Expression) -> None:
        self.inner = inner

    def to_column(self) -> Column:
        return ~self.inner.to_column()


class MeosExpression(Expression):
    """Base class for MEOS-backed expressions.

    Two execution paths, mirroring NebulaStream's query compilation
    (Grulich et al., "Query Compilation Without Regrets" — the paper's
    plugin host compiles operators to native code):

    * **compiled** (default where possible): rect/circle geometry
      predicates lower to pure Catalyst column arithmetic — no Python
      boundary at runtime, whole-stage-codegen'd by Spark;
    * **interpreted**: an Arrow pandas UDF closing over the MEOS numpy
      kernel — required for general polygons, and available everywhere
      via ``compile=False`` (used to test path equivalence).
    """


def _zone_dist_column(x: Column, y: Column, zone) -> Column:
    """Distance from (x, y) to a Rect/Circle zone as a Catalyst
    expression (0 inside), the arithmetic of the zone's numpy
    ``distance``. ``hypot`` keeps each operand a single subtree: Catalyst
    folds a projection over a local relation with its interpreted
    evaluator, which would evaluate a squared operand twice."""
    from repro.meos.geometry import Circle, Rect

    if isinstance(zone, Rect):
        ddx = F.greatest(F.lit(zone.xmin) - x, x - F.lit(zone.xmax), F.lit(0.0))
        ddy = F.greatest(F.lit(zone.ymin) - y, y - F.lit(zone.ymax), F.lit(0.0))
        return F.hypot(ddx, ddy)
    if isinstance(zone, Circle):
        centre = F.hypot(x - F.lit(zone.cx), y - F.lit(zone.cy))
        return F.greatest(centre - F.lit(zone.r), F.lit(0.0))
    raise TypeError(f"cannot compile {type(zone).__name__}")


def _compilable(zones: Sequence) -> bool:
    from repro.meos.geometry import Circle, Rect

    return all(isinstance(z, (Rect, Circle)) for z in zones)


class EdWithinExpression(MeosExpression):
    """``edwithin``-style predicate: event position within ``d`` metres
    of any of the given zones (distance 0 = containment)."""

    def __init__(
        self, x: Expression, y: Expression, zones: Sequence, d: float,
        *, compile: bool = True,
    ) -> None:
        if d < 0:
            raise ValueError("negative distance")
        self.x, self.y, self.zones, self.d = x, y, list(zones), d
        self.compile = compile and _compilable(self.zones)

    def to_column(self) -> Column:
        zones, d = self.zones, self.d
        xc, yc = self.x.to_column(), self.y.to_column()
        if self.compile:
            if not zones:
                return F.lit(False)
            pred = None
            for z in zones:
                term = _zone_dist_column(xc, yc, z) <= F.lit(float(d))
                pred = term if pred is None else (pred | term)
            return pred

        @pandas_udf("boolean")
        def _edwithin(xs: pd.Series, ys: pd.Series) -> pd.Series:
            return pd.Series(min_zone_distance(xs.to_numpy(), ys.to_numpy(), zones) <= d)

        return _edwithin(xc, yc)


class TPointAtStboxExpression(MeosExpression):
    """``tpoint_at_stbox``-style restriction predicate at event level:
    true where the (x, y, t) sample falls inside the STBox. The engine
    uses it to *restrict* streams (filter), mirroring MEOS semantics of
    returning the portion of the temporal point inside the box."""

    def __init__(
        self, x: Expression, y: Expression, t: Expression, box: STBox,
        *, compile: bool = True,
    ) -> None:
        self.x, self.y, self.t, self.box = x, y, t, box
        self.compile = compile

    def to_column(self) -> Column:
        box = self.box
        xc, yc, tc = self.x.to_column(), self.y.to_column(), self.t.to_column()
        if self.compile:
            # Closed-box comparisons; unbounded sides lower to literal
            # True and are pruned by Catalyst.
            import math

            def bound(col, lo, hi):
                p = F.lit(True)
                if math.isfinite(lo):
                    p = p & (col >= F.lit(lo))
                if math.isfinite(hi):
                    p = p & (col <= F.lit(hi))
                return p

            return (
                bound(xc, box.xmin, box.xmax)
                & bound(yc, box.ymin, box.ymax)
                & bound(tc, box.tmin, box.tmax)
            )

        @pandas_udf("boolean")
        def _at_stbox(xs: pd.Series, ys: pd.Series, ts: pd.Series) -> pd.Series:
            return pd.Series(
                box.contains_point(xs.to_numpy(), ys.to_numpy(), ts.to_numpy())
            )

        return _at_stbox(xc, yc, tc)


class ZoneIdExpression(MeosExpression):
    """Id of the first zone containing the event position (−1 outside)."""

    def __init__(
        self, x: Expression, y: Expression, zones: Sequence, ids: Sequence[int],
        *, compile: bool = True,
    ) -> None:
        self.x, self.y, self.zones, self.ids = x, y, list(zones), list(ids)
        self.compile = compile and _compilable(self.zones)

    def to_column(self) -> Column:
        zones, ids = self.zones, self.ids
        xc, yc = self.x.to_column(), self.y.to_column()
        if self.compile:
            # First-match-wins CASE chain, codegen'd by Catalyst.
            expr = None
            for z, zid in zip(zones, ids):
                contains = _zone_dist_column(xc, yc, z) <= F.lit(0.0)
                expr = (
                    F.when(contains, F.lit(int(zid)))
                    if expr is None
                    else expr.when(contains, F.lit(int(zid)))
                )
            if expr is None:
                return F.lit(-1).cast("long")
            return expr.otherwise(F.lit(-1)).cast("long")

        @pandas_udf("long")
        def _zone_id(xs: pd.Series, ys: pd.Series) -> pd.Series:
            return pd.Series(zone_id_at(xs.to_numpy(), ys.to_numpy(), zones, ids))

        return _zone_id(xc, yc)


class NearestZoneExpression(MeosExpression):
    """Nearest zone id per event (brute-force kNN over a small zone set
    — Q5's "query nearby workshops")."""

    def __init__(
        self, x: Expression, y: Expression, zones: Sequence, ids: Sequence[int],
        *, compile: bool = True,
    ) -> None:
        self.x, self.y, self.zones, self.ids = x, y, list(zones), list(ids)
        self.compile = compile and _compilable(self.zones)

    def to_column(self) -> Column:
        zones, ids = self.zones, self.ids
        xc, yc = self.x.to_column(), self.y.to_column()
        if self.compile:
            if not zones:
                return F.lit(-1).cast("long")
            dists = [_zone_dist_column(xc, yc, z) for z in zones]
            dmin = dists[0] if len(dists) == 1 else F.least(*dists)
            expr = F.when(dists[0] == dmin, F.lit(int(ids[0])))
            for d, zid in zip(dists[1:], ids[1:]):
                expr = expr.when(d == dmin, F.lit(int(zid)))
            return expr.cast("long")  # first minimum wins, as in numpy

        @pandas_udf("long")
        def _nearest(xs: pd.Series, ys: pd.Series) -> pd.Series:
            zid, _ = nearest_zone(xs.to_numpy(), ys.to_numpy(), zones, ids)
            return pd.Series(zid)

        return _nearest(xc, yc)


def field(name: str) -> FieldAccess:
    """Convenience constructor mirroring NebulaStream's Attribute()."""
    return FieldAccess(name)
