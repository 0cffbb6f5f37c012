package repro.core

import repro.{Oracle, SparkSpec}
import repro.core.frep.HierRelation
import repro.core.reptile.{AuxDataset, Dimension, Drilldown, Featurizer, Reptile, ReptileConfig, StatKind}
import org.apache.spark.sql.functions._
import scala.util.Random

class FeaturizerSpec extends SparkSpec {
  import spark.implicits._

  private lazy val fact = Seq(
    ("t1", "d1", "v1", 2.0), ("t1", "d1", "v2", 4.0), ("t1", "d2", "v3", 6.0),
    ("t2", "d1", "v1", 10.0), ("t2", "d1", "v2", 12.0), ("t2", "d2", "v3", 20.0),
    ("t2", "d2", "v3", 22.0),
  ).toDF("t", "d", "v", "measure")

  private lazy val hiers = Vector(
    HierRelation.fromDataFrame(fact, "time", Seq("t")),
    HierRelation.fromDataFrame(fact, "geo", Seq("d", "v")),
  )

  /** Group g's values of the drill-down's attributes. */
  private def keyOf(dd: Drilldown, g: Int): Vector[String] =
    dd.hiers.indices.flatMap(h => dd.hiers(h).rows(dd.groupRows(h)(g))).toVector

  private lazy val statsDf =
    Reptile.drilldownStats(fact, Seq("t", "d", "v"), "measure")
      .withColumn("y", col("stat_mean")).cache()

  test("drilldownStats matches DuckDB group statistics") {
    Oracle.assertEquivalent(
      statsDf.select($"t", $"d", $"v", $"stat_count", $"stat_mean", $"stat_sum"),
      """SELECT t, d, v, count(*)::DOUBLE AS stat_count, avg(measure::DOUBLE) AS stat_mean,
        |       sum(measure::DOUBLE) AS stat_sum
        |FROM fact GROUP BY t, d, v""".stripMargin,
      "fact" -> fact,
    )
  }

  test("grouping-sets drill-downs match DuckDB group statistics per set") {
    val time = Dimension("time", Vector("t"))
    val geo = Dimension("geo", Vector("d", "v"))
    val useds = Vector(Vector((time, 1), (geo, 1)), Vector((geo, 2)), Vector((geo, 1), (time, 1)), Vector((time, 1), (geo, 2)))
    Reptile.collectDrilldowns(fact, useds, "measure").foreach { dd =>
      val rows = dd.stats.indices.map(i => (keyOf(dd, i), dd.stats(i).count, dd.stats(i).mean, dd.sums(i)))
      val got = rows.toDF("key", "stat_count", "stat_mean", "stat_sum")
        .select(dd.attrs.indices.map(i => $"key"(i).as(dd.attrs(i))) ++
          Seq($"stat_count", $"stat_mean", $"stat_sum"): _*)
      Oracle.assertEquivalent(got,
        s"""SELECT ${dd.attrs.mkString(", ")}, count(*)::DOUBLE AS stat_count,
           |       avg(measure::DOUBLE) AS stat_mean, sum(measure::DOUBLE) AS stat_sum
           |FROM fact GROUP BY ${dd.attrs.mkString(", ")}""".stripMargin,
        "fact" -> fact)
    }
  }

  test("main effects are medians of the group statistic (vs DuckDB)") {
    val cols = Featurizer.build(statsDf, hiers, "y", Nil, minParallel = 2.0)
    val tCol = cols.find(_.label == "main:t").get
    val duck = {
      // median over the drill-down groups of each t value
      val grouped = statsDf.select($"t", $"y")
      val med = grouped.groupBy($"t").agg(median($"y").as("med")).collect()
        .map(r => r.getString(0) -> r.getDouble(1)).toMap
      med
    }
    assert(tCol.f("t1") == duck("t1"))
    assert(tCol.f("t2") == duck("t2"))
  }

  test("intercept is always the first column") {
    val cols = Featurizer.build(statsDf, hiers, "y", Nil)
    assert(cols.head.label == "intercept")
    assert(cols.head.f("anything") == 1.0)
  }

  test("leaky attributes (no parallel groups) are excluded") {
    // v identifies a unique (t,d,v) group only jointly with t; with both
    // hierarchies present every attr has >= 2 rows per value, so all appear.
    val cols = Featurizer.build(statsDf, hiers, "y", Nil, minParallel = 2.0)
    assert(cols.exists(_.label == "main:v"))
    // but over a single-attribute matrix each value is its own group:
    val soloHier = Vector(HierRelation.fromDataFrame(fact, "geo", Seq("v")))
    val soloStats = Reptile.drilldownStats(fact, Seq("v"), "measure").withColumn("y", col("stat_mean"))
    val soloCols = Featurizer.build(soloStats, soloHier, "y", Nil, minParallel = 2.0)
    assert(!soloCols.exists(_.label == "main:v"))
    assert(soloCols.map(_.label) == Vector("intercept"))
  }

  test("auxiliary features are z-scored and keyed on the join attribute") {
    val auxDf = Seq(("v1", 10.0), ("v2", 20.0), ("v3", 30.0)).toDF("v", "rain")
    val cols = Featurizer.build(statsDf, hiers, "y", Seq(AuxDataset("rain", auxDf, "v", "rain")))
    val rainCol = cols.find(_.label == "aux:rain").get
    assert(math.abs(rainCol.f("v2")) < 1e-12) // centered
    assert(rainCol.f("v3") > 0 && rainCol.f("v1") < 0)
    assert(math.abs(rainCol.f("v1") + rainCol.f("v3")) < 1e-12)
    assert(rainCol.f("unknown") == 0.0) // missing join rows default to 0
  }

  test("aux datasets with an unknown join attribute are skipped") {
    val auxDf = Seq(("x", 1.0)).toDF("nope", "m")
    val cols = Featurizer.build(statsDf, hiers, "y", Seq(AuxDataset("bad", auxDf, "nope", "m")))
    assert(!cols.exists(_.label == "aux:bad"))
  }

  test("sparkMedian equals Spark's median bit for bit (odd and even counts)") {
    val rng = new Random(11)
    // Group g has g + 1 values: odd and even counts, with repeated values
    // and values whose halves round, so interpolation order shows.
    val values = (0 until 40).flatMap { g =>
      (0 to g).map(_ => g -> (if (rng.nextInt(4) == 0) rng.nextInt(3).toDouble else rng.nextGaussian() * 1e3 + 1e-7))
    }
    val fromSpark = values.toDF("g", "x").groupBy($"g").agg(median($"x")).collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    values.groupMap(_._1)(_._2).foreach { case (g, xs) =>
      val mine = Featurizer.sparkMedian(xs.toArray)
      assert(java.lang.Double.doubleToRawLongBits(mine) == java.lang.Double.doubleToRawLongBits(fromSpark(g)),
        s"group $g (${xs.size} values): $mine vs ${fromSpark(g)}")
    }
  }

  test("driver main effects equal Spark medians over the statistics (random, with and without log1p)") {
    val rng = new Random(5)
    // Random sparse fact: each (t, d, v) group present with probability
    // 0.7 and holding 1-4 rows, so attribute values cover odd and even
    // numbers of groups.
    val rows = for {
      t <- 0 until 6; d <- 0 until 4; v <- 0 until 5 if rng.nextDouble() < 0.7
      _ <- 0 until 1 + rng.nextInt(4)
    } yield (s"t$t", s"d$d", s"d$d-v$v", rng.nextGaussian() * 50 + 20)
    val randFact = rows.toDF("t", "d", "v", "measure")
    val used = Vector((Dimension("time", Vector("t")), 1), (Dimension("geo", Vector("d", "v")), 2))
    val dd = Reptile.collectDrilldown(randFact, used, "measure")
    val stats = Reptile.drilldownStats(randFact, Seq("t", "d", "v"), "measure")
    val parities = dd.stats.indices.map(keyOf(dd, _)).groupBy(_(0)).values.map(_.size % 2).toSet
    assert(parities == Set(0, 1), "need attribute values with odd and even group counts")
    for (log <- Seq(false, true); kind <- Seq(StatKind.CountStat, StatKind.MeanStat, StatKind.SumStat)) {
      val cols = dd.features(kind, Nil, ReptileConfig(logTransform = log))
      val y = if (log) log1p(greatest(col(kind.col), lit(0.0))) else col(kind.col)
      for (attr <- Seq("t", "d", "v")) {
        val sparkMed = stats.groupBy(col(attr)).agg(median(y)).collect()
          .map(r => r.getString(0) -> r.getDouble(1)).toMap
        val f = cols.find(_.label == s"main:$attr").get.f
        sparkMed.foreach { case (value, m) =>
          assert(f(value) == m, s"${kind.name} log=$log $attr=$value: ${f(value)} vs $m")
        }
      }
    }
  }

  test("build over a statistics DataFrame equals featurizing the collected groups") {
    val used = Vector((Dimension("time", Vector("t")), 1), (Dimension("geo", Vector("d", "v")), 2))
    val dd = Reptile.collectDrilldown(fact, used, "measure")
    val fromDf = Featurizer.build(statsDf, hiers, "y", Nil)
    val fromKeys = dd.features(StatKind.MeanStat, Nil, ReptileConfig())
    assert(fromDf.map(_.label) == fromKeys.map(_.label))
    for ((a, b) <- fromDf.zip(fromKeys); v <- Seq("t1", "t2", "d1", "d2", "v1", "v2", "v3", "unseen"))
      assert(a.f(v) == b.f(v), s"${a.label}($v)")
  }
}
