"""Compiled (Catalyst) vs interpreted (Arrow UDF) MEOS expression paths.

NebulaStream compiles queries to native operators (Grulich et al. [4]);
our expression nodes mirror that by lowering rect/circle predicates to
pure Catalyst arithmetic, keeping the numpy-kernel UDF as the general
fallback. Both paths must agree bit-for-bit on every predicate.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core import queries as Q
from repro.core.streaming import Q7StopDetector
from repro.meos.geometry import Circle, Polygon, Rect
from repro.meos.stbox import STBox
from repro.nebula.expressions import (
    EdWithinExpression,
    NearestZoneExpression,
    TPointAtStboxExpression,
    ZoneIdExpression,
    field,
)
from repro.sncb.zones import shapes_from_df, zones_df

ZONES = [Rect(-500, -500, 500, 500), Circle(2000, 0, 300), Rect(1500, 1500, 2500, 2500)]
IDS = [10, 20, 30]


@pytest.fixture(scope="module")
def points(spark):
    rng = np.random.default_rng(11)
    pdf = pd.DataFrame(
        {
            "x": rng.uniform(-3000, 3000, 4000),
            "y": rng.uniform(-3000, 3000, 4000),
            "ts": np.arange(4000, dtype=np.float64),
        }
    )
    return spark.createDataFrame(pdf).cache()


def _both(points, make_expr, colname="v"):
    compiled = points.select(
        "ts", make_expr(compile=True).to_column().alias(colname)
    ).orderBy("ts").toPandas()
    interp = points.select(
        "ts", make_expr(compile=False).to_column().alias(colname)
    ).orderBy("ts").toPandas()
    return compiled[colname].to_numpy(), interp[colname].to_numpy()


class TestEdWithinCompilation:
    @pytest.mark.parametrize("d", [0.0, 100.0, 750.0])
    def test_paths_agree(self, points, d):
        c, i = _both(
            points,
            lambda compile: EdWithinExpression(
                field("x"), field("y"), ZONES, d, compile=compile
            ),
        )
        np.testing.assert_array_equal(c, i)

    def test_compiled_flag_set(self):
        e = EdWithinExpression(field("x"), field("y"), ZONES, 1.0)
        assert e.compile

    def test_polygon_forces_interpreter(self):
        poly = Polygon([[0, 0], [10, 0], [5, 8]])
        e = EdWithinExpression(field("x"), field("y"), [poly], 1.0)
        assert not e.compile

    def test_polygon_interpreter_executes(self, points):
        poly = Polygon([[-3000, -3000], [3000, -3000], [0, 3000]])
        e = EdWithinExpression(field("x"), field("y"), [poly], 0.0)
        got = points.select(e.to_column().alias("hit")).toPandas()
        assert got["hit"].any() and not got["hit"].all()

    def test_empty_zones_false(self, points):
        e = EdWithinExpression(field("x"), field("y"), [], 10.0)
        got = points.select(e.to_column().alias("hit")).toPandas()
        assert not got["hit"].any()


class TestZoneIdCompilation:
    def test_paths_agree(self, points):
        c, i = _both(
            points,
            lambda compile: ZoneIdExpression(
                field("x"), field("y"), ZONES, IDS, compile=compile
            ),
        )
        np.testing.assert_array_equal(c, i)

    def test_first_match_wins_in_overlap(self, spark):
        overlapping = [Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)]
        pdf = pd.DataFrame({"x": [7.0], "y": [7.0], "ts": [0.0]})
        df = spark.createDataFrame(pdf)
        for compile in (True, False):
            e = ZoneIdExpression(field("x"), field("y"), overlapping, [1, 2], compile=compile)
            assert df.select(e.to_column().alias("z")).toPandas()["z"][0] == 1

    def test_real_zone_catalogue(self, points):
        shapes, ids = shapes_from_df(zones_df())
        c, i = _both(
            points,
            lambda compile: ZoneIdExpression(
                field("x"), field("y"), shapes, ids, compile=compile
            ),
        )
        np.testing.assert_array_equal(c, i)


class TestNearestZoneCompilation:
    def test_paths_agree(self, points):
        c, i = _both(
            points,
            lambda compile: NearestZoneExpression(
                field("x"), field("y"), ZONES, IDS, compile=compile
            ),
        )
        np.testing.assert_array_equal(c, i)

    def test_workshop_catalogue(self, points):
        shapes, ids = shapes_from_df(zones_df(["workshop"]))
        c, i = _both(
            points,
            lambda compile: NearestZoneExpression(
                field("x"), field("y"), shapes, ids, compile=compile
            ),
        )
        np.testing.assert_array_equal(c, i)


class TestStboxCompilation:
    @pytest.mark.parametrize(
        "box",
        [
            STBox(0, 1000, -500, 500, 0, 2000),
            STBox(xmin=0, xmax=1000),          # unbounded y/t
            STBox(tmin=100, tmax=200),         # time-only
            STBox(),                           # fully unbounded
        ],
    )
    def test_paths_agree(self, points, box):
        c, i = _both(
            points,
            lambda compile: TPointAtStboxExpression(
                field("x"), field("y"), field("ts"), box, compile=compile
            ),
        )
        np.testing.assert_array_equal(c, i)


def _python_eval_nodes(df) -> list[str]:
    plan = df._jdf.queryExecution().executedPlan().toString()
    return [n for n in ("ArrowEvalPython", "BatchEvalPython") if n in plan]


class TestQueryPlans:
    """The compiled/interpreted rule: rect/circle zone predicates compile
    to Catalyst, so a query over such zones evaluates no Python UDF;
    Q5's battery curve is the one UDF a query uses."""

    def test_zone_queries_evaluate_no_python_udf(self, geofence_sdf, stop_sdf):
        plans = {
            "q1": Q.q1_alert_filtering(geofence_sdf, zones_df(["maintenance"])),
            "q2": Q.q2_noise_monitoring(geofence_sdf, zones_df(["neighbourhood"])),
            "q3": Q.q3_dynamic_speed_limit(geofence_sdf, zones_df(["curve"])),
            "q7 flag step": Q7StopDetector(
                zones_df(["station", "workshop"])
            ).query.flag(stop_sdf),
        }
        found = {name: _python_eval_nodes(df) for name, df in plans.items()}
        assert found == dict.fromkeys(plans, [])

    def test_q5_curve_is_an_arrow_udf(self, battery_sdf):
        df = Q.q5_battery_monitoring(battery_sdf, zones_df(["workshop"]))
        assert _python_eval_nodes(df) == ["ArrowEvalPython"]
