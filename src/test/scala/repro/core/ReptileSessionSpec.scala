package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import repro.SparkSpec
import repro.core.ReptileSpec.{dims, panel}
import repro.core.reptile._
import scala.util.Random

/** `ReptileSession` against the stateless engine: one scan, drill-downs
  * rolled up from its leaf groups, the same statistics, rankings and errors.
  */
class ReptileSessionSpec extends SparkSpec {
  import spark.implicits._

  private val cfg = ReptileConfig(emIters = 8)

  private val a = Dimension("a", Vector("a1", "a2"))
  private val b = Dimension("b", Vector("b1", "b2"))
  private val c = Dimension("c", Vector("c1"))
  private val abc = Vector(a, b, c)

  /** A random fact table over a(a1 -> a2), b(b1 -> b2) and c(c1), its rows
    * shuffled into three partitions, so most groups are spread over several.
    */
  private def spread(seed: Long): DataFrame = {
    val rng = new Random(seed)
    val rows = for {
      a1 <- 0 until 3; a2 <- 0 until 3; b1 <- 0 until 2; b2 <- 0 until 3; c1 <- 0 until 2
      if rng.nextDouble() < 0.7
      _ <- 0 until 1 + rng.nextInt(4)
    } yield Row(s"a$a1", s"a$a1-$a2", s"b$b1", s"b$b1-$b2", s"c$c1", 50.0 + 20.0 * rng.nextGaussian())
    val schema = StructType(abc.flatMap(_.attrs).map(StructField(_, StringType)) :+ StructField("m", DoubleType))
    spark.createDataFrame(spark.sparkContext.parallelize(rng.shuffle(rows), 3), schema)
  }

  /** Every drill-down of `abc`: each set of hierarchies at each depth, in
    * each order.
    */
  private val useds: Vector[Vector[(Dimension, Int)]] = {
    val depths = abc.map(d => (0 to d.attrs.size).toVector)
    depths.foldLeft(Vector(Vector.empty[Int]))((acc, ds) => for (p <- acc; d <- ds) yield p :+ d)
      .flatMap(ds => abc.zip(ds).filter(_._2 > 0).permutations)
      .filter(_.nonEmpty)
  }

  private def keys(dd: Drilldown): Vector[Vector[String]] =
    dd.stats.indices.map(g => dd.hiers.indices.flatMap(h => dd.hiers(h).rows(dd.groupRows(h)(g))).toVector).toVector

  private def close(x: Double, y: Double): Boolean = math.abs(x - y) <= 1e-12 * math.max(math.abs(x), math.abs(y))
  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("session drill-downs equal collectDrilldown's at every depth") {
    for (seed <- 0 until 2) {
      val fact = spread(seed)
      val session = new ReptileSession(fact, abc, "m")
      var rolled, leaf = 0
      for ((used, want) <- useds.zip(Reptile.collectDrilldowns(fact, useds, "m"))) {
        val got = session.drilldown(used)
        val what = s"seed $seed, ${used.map { case (d, dep) => s"${d.name}$dep" }.mkString(" ")}"
        assert(got.used == want.used, what)
        got.hiers.zip(want.hiers).foreach { case (x, y) =>
          assert((x.dim, x.attrs, x.rows) == (y.dim, y.attrs, y.rows), what)
        }
        assert(keys(got) == keys(want), what)
        assert(got.groupRows.map(_.toVector) == want.groupRows.map(_.toVector), what)
        assert(got.stats.map(_.count) == want.stats.map(_.count), what)
        val pairs = got.stats.indices.flatMap { g =>
          Seq(got.stats(g).mean -> want.stats(g).mean, got.stats(g).std -> want.stats(g).std, got.sums(g) -> want.sums(g))
        }
        if (used.map(_._2).sum == abc.map(_.attrs.size).sum) {
          leaf += 1
          pairs.foreach { case (x, y) => assert(bits(x) == bits(y), s"$what: $x vs $y") }
        } else {
          rolled += 1
          pairs.foreach { case (x, y) => assert(close(x, y), s"$what: $x vs $y") }
        }
      }
      assert(leaf == 6 && rolled == useds.size - 6)
    }
  }

  test("a session runs one Spark job for its first drill-down, none after") {
    val fact = panel(20).toDF("year", "district", "village", "sev")
    val session = new ReptileSession(fact, dims, "sev")
    val (time, geo) = (dims(0), dims(1))
    val first = ReptileSpec.sparkWork(spark)(session.drilldown(Vector((geo, 1), (time, 1))))
    assert(first == (1, 1), s"first drill-down ran (jobs, stages) = $first")
    val later = ReptileSpec.sparkWork(spark) {
      session.drilldown(Vector((time, 1), (geo, 2)))
      session.drilldown(Vector((geo, 1)))
      session.drilldown(Vector((geo, 2), (time, 1)))
      session.recommend(Map("geo" -> 1), Map("district" -> "ofla"), Complaint(AggType.Mean, Direction.TooLow), cfg = cfg)
    }
    assert(later == (0, 0), s"later drill-downs ran (jobs, stages) = $later")
  }

  test("a session builds each hierarchy's relation at a depth once") {
    val session = new ReptileSession(spread(3), abc, "m")
    val first = session.drilldown(Vector((a, 1), (b, 2)))
    val second = session.drilldown(Vector((b, 2), (c, 1), (a, 1)))
    assert(second.hiers(0) eq first.hiers(1))
    assert(second.hiers(2) eq first.hiers(0))
    assert(!(session.drilldown(Vector((a, 2))).hiers(0) eq first.hiers(0)))
  }

  test("session recommend and rankDim rank as Reptile's do") {
    val rows = panel(21).map {
      case (y, d, v, m) if y == "1987" && v == "raya-v2" => (y, d, v, m - 3.0)
      case r                                             => r
    }
    // Several partitions, so the rolled-up statistics are not the stateless ones bit for bit.
    val fact = spark.createDataFrame(spark.sparkContext.parallelize(new Random(22).shuffle(rows), 4))
      .toDF("year", "district", "village", "sev")
    val session = new ReptileSession(fact, dims, "sev")
    def same(got: DimRankResult, want: DimRankResult, what: String): Unit = {
      assert((got.dim, got.attr) == (want.dim, want.attr), what)
      assert(got.ranked.map(_.values) == want.ranked.map(_.values), what)
      assert(got.candidates.map(_.observed.count) == want.candidates.map(_.observed.count), what)
      got.candidates.zip(want.candidates).foreach { case (x, y) =>
        assert(math.abs(x.score - y.score) <= 1e-9 * math.max(1.0, math.abs(y.score)),
          s"$what ${x.values}: ${x.score} vs ${y.score}")
      }
    }
    val steps = Seq(
      (Map("geo" -> 1), Map("district" -> "raya")),
      (Map("time" -> 1, "geo" -> 1), Map("year" -> "1987", "district" -> "raya")))
    for ((drilled, filters) <- steps; agg <- Seq(AggType.Count, AggType.Mean, AggType.Sum)) {
      val complaint = Complaint(agg, Direction.TooLow)
      val what = s"${agg.name} complaint at $drilled"
      val rec = session.recommend(drilled, filters, complaint, cfg = cfg)
      val want = Reptile.recommend(spark, fact, dims, drilled, filters, complaint, "sev", cfg = cfg)
      assert(rec.map(_.dim) == want.map(_.dim), what)
      rec.zip(want).foreach { case (x, y) => same(x, y, s"recommend, $what") }
      same(session.rankDim(drilled, filters, complaint, "geo", cfg = cfg),
        Reptile.rankDim(spark, fact, dims, drilled, filters, complaint, "sev", "geo", cfg = cfg), s"rankDim, $what")
    }
  }

  /** The message of the `IllegalArgumentException` that `f` throws. */
  private def failure(f: => Any): String = intercept[IllegalArgumentException](f).getMessage

  test("a null value fails exactly the session drill-downs grouping by it") {
    val fact = panel(23).map {
      case (y, d, v, m) if y == "1985" && v == "bora-v1" => (y, d, null, m)
      case r                                             => r
    }.toDF("year", "district", "village", "sev")
    val session = new ReptileSession(fact, dims, "sev")
    val (time, geo) = (dims(0), dims(1))
    for (used <- Seq(Vector((time, 1)), Vector((geo, 1)), Vector((time, 1), (geo, 1)))) {
      val (got, want) = (session.drilldown(used), Reptile.collectDrilldown(fact, used, "sev"))
      assert(keys(got) == keys(want) && got.stats.map(_.count) == want.stats.map(_.count), used)
    }
    val complaint = Complaint(AggType.Mean, Direction.TooLow)
    val want = failure(Reptile.rankDim(spark, fact, dims, Map("time" -> 1, "geo" -> 1),
      Map("year" -> "1986", "district" -> "ofla"), complaint, "sev", "geo", cfg = cfg))
    assert(want == "null value of attribute village", want)
    assert(failure(session.drilldown(Vector((geo, 2)))) == want)
    assert(failure(session.rankDim(Map("time" -> 1, "geo" -> 1), Map("year" -> "1986", "district" -> "ofla"),
      complaint, "geo", cfg = cfg)) == want)
    assert(failure(session.recommend(Map("geo" -> 1), Map("district" -> "ofla"), complaint, cfg = cfg)) ==
      failure(Reptile.recommend(spark, fact, dims, Map("geo" -> 1), Map("district" -> "ofla"), complaint, "sev",
        cfg = cfg)))
    // Drilling time alone groups by no village.
    session.rankDim(Map.empty, Map.empty, complaint, "time", cfg = cfg)
  }

  test("a null or NaN measure fails a session as it fails Reptile") {
    for ((what, value) <- Seq("null" -> None, "NaN" -> Some(Double.NaN))) {
      val fact = panel(24).map {
        case (y, d, v, m) if y == "1985" && v == "bora-v1" && m > 7.0 => (y, d, v, value)
        case (y, d, v, m)                                             => (y, d, v, Some(m))
      }.toDF("year", "district", "village", "sev")
      val session = new ReptileSession(fact, dims, "sev")
      val complaint = Complaint(AggType.Sum, Direction.TooLow)
      val want = failure(Reptile.rankDim(spark, fact, dims, Map("time" -> 1, "geo" -> 1),
        Map("year" -> "1986", "district" -> "ofla"), complaint, "sev", "geo", cfg = cfg))
      assert(want.contains(s"measure sev is $what") && want.contains("group (1985, bora, bora-v1)"), want)
      assert(failure(session.rankDim(Map("time" -> 1, "geo" -> 1), Map("year" -> "1986", "district" -> "ofla"),
        complaint, "geo", cfg = cfg)) == want)
      assert(failure(session.recommend(Map("geo" -> 1), Map("district" -> "ofla"), complaint, cfg = cfg)) ==
        failure(Reptile.recommend(spark, fact, dims, Map("geo" -> 1), Map("district" -> "ofla"), complaint, "sev",
          cfg = cfg)), what)
    }
  }

  test("an empty fact table fails a session with no rows to group by") {
    val fact = panel(25).toDF("year", "district", "village", "sev").limit(0)
    val session = new ReptileSession(fact, dims, "sev")
    val complaint = Complaint(AggType.Mean, Direction.TooLow)
    val drilled = Map("time" -> 1, "geo" -> 1)
    val filters = Map("year" -> "1986", "district" -> "ofla")
    val want = failure(Reptile.rankDim(spark, fact, dims, drilled, filters, complaint, "sev", "geo", cfg = cfg))
    assert(want == "the fact table has no rows to group by (year, district, village)", want)
    assert(failure(session.rankDim(drilled, filters, complaint, "geo", cfg = cfg)) == want)
    assert(failure(session.recommend(Map("geo" -> 1), Map("district" -> "ofla"), complaint, cfg = cfg))
      .contains("the fact table has no rows to group by"))
  }
}
