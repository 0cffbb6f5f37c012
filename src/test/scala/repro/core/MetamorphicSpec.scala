package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.reptile._
import repro.synth.{CovidSynth, DatasetSynth}
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Relations a ranking must keep when its input changes in ways the
  * method cannot see (row order, partitioning) or sees only as a unit
  * (the measure's scale), checked through `Reptile.rankDim` and
  * `Reptile.recommend`.
  */
class MetamorphicSpec extends SparkSpec {

  /** One `rankDim` call over a fact table. */
  private final case class Call(dims: Vector[Dimension], drilled: Map[String, Int], filters: Map[String, String],
                                complaint: Complaint, measure: String, target: String, cfg: ReptileConfig) {
    def rank(fact: DataFrame): DimRankResult =
      Reptile.rankDim(spark, fact, dims, drilled, filters, complaint, measure, target, Nil, cfg)
  }

  /** A US COVID issue with the configuration of the COVID experiment. */
  private def covid: (DataFrame, Call) = {
    val issue = CovidSynth.usIssues.find(_.id == "3449").get // Arizona over-report
    val cfg = ReptileConfig(emIters = 12, logTransform = true, sumDirect = true, randomEffects = "intercept")
    (CovidSynth.corruptedUs(spark, issue),
      Call(Vector(Dimension("time", Vector("day")), Dimension("geo", Vector("state"))), Map("time" -> 1),
        Map("day" -> CovidSynth.dayKey(issue.day)), Complaint(AggType.Sum, issue.dir), "value", "geo", cfg))
  }

  /** COMPAS-like rows, about 9 records per group, drilling into race under
    * one (month, age) with a MEAN complaint and the default configuration:
    * 72 clusters of 6 groups.
    */
  private def compas: (DataFrame, Call) =
    (DatasetSynth.compasLike(spark, rows = 4000, seed = 31),
      Call(Vector(Dimension("time", Vector("year", "month", "day")), Dimension("age", Vector("age")),
          Dimension("race", Vector("race"))),
        Map("time" -> 2, "age" -> 1), Map("year" -> "y1", "month" -> "y1-m03", "age" -> "a1"),
        Complaint(AggType.Mean, Direction.TooHigh), "v", "race", ReptileConfig(emIters = 12)))

  /** The same rows in another order, in 7 partitions. */
  private def shuffled(fact: DataFrame, seed: Long): DataFrame =
    spark.createDataFrame(new Random(seed).shuffle(fact.collect().toSeq).asJava, fact.schema).repartition(7)

  private def assertSameRanking(a: DimRankResult, b: DimRankResult, what: String): Unit = {
    assert(a.ranked.map(_.values) == b.ranked.map(_.values), what)
    a.candidates.zip(b.candidates).foreach { case (x, y) =>
      assert(x.values == y.values, what)
      assert(math.abs(x.score - y.score) <= 1e-9 * math.abs(y.score), s"$what: ${x.values} ${x.score} vs ${y.score}")
    }
  }

  test("shuffling the fact rows and repartitioning leave the ranking and scores unchanged") {
    for (((fact, call), name) <- Seq(covid -> "covid", compas -> "compas")) {
      val base = call.rank(fact)
      for (seed <- Seq(1L, 2L))
        assertSameRanking(call.rank(shuffled(fact, seed)), base, s"$name, shuffle seed $seed")
    }
  }

  test("shuffling the fact rows and repartitioning leave recommend's hierarchy order, rankings and scores unchanged") {
    val (fact, call) = compas
    def recommend(df: DataFrame): Vector[DimRankResult] =
      Reptile.recommend(spark, df, call.dims, call.drilled, call.filters, call.complaint, call.measure, Nil, call.cfg)
    val base = recommend(fact)
    assert(base.size == 2) // time (day) and race
    for (seed <- Seq(1L, 2L)) {
      val got = recommend(shuffled(fact, seed))
      assert(got.map(_.dim) == base.map(_.dim), s"hierarchy order, shuffle seed $seed")
      got.zip(base).foreach { case (a, b) => assertSameRanking(a, b, s"${b.dim}, shuffle seed $seed") }
    }
  }

  test("scaling the measure by c scales a MEAN complaint's predictions by c and keeps the ranking") {
    // Random intercepts, as in the COVID experiment. The main-effect columns
    // scale with the measure and the intercept does not; with every column
    // random, Sigma's start sigma2 I and the E-step's ridge (relative to
    // Sigma^-1's mean diagonal) do not follow the columns' scales, and at
    // c = 1e3 two candidates swap places.
    val (fact, call0) = compas
    val mean = call0.copy(cfg = call0.cfg.copy(randomEffects = "intercept"))
    // A SUM complaint is modelled by a COUNT and a MEAN model; the counts
    // do not see the measure, so their predictions must not move.
    val sum = mean.copy(complaint = Complaint(AggType.Sum, Direction.TooHigh))
    for ((call, scales) <- Seq(mean -> Seq(1e-3, 1e3), sum -> Seq(1e3))) {
      val base = call.rank(fact)
      val norm = base.candidates.map(_.predicted("mean").abs).max
      for (c <- scales) {
        val what = s"${call.complaint.agg} c=$c"
        val scaled = call.rank(fact.withColumn("v", col("v") * c))
        assert(scaled.ranked.map(_.values) == base.ranked.map(_.values), what)
        scaled.candidates.zip(base.candidates).foreach { case (x, y) =>
          val err = math.abs(x.predicted("mean") / c - y.predicted("mean"))
          assert(err <= 1e-6 * norm, s"$what ${x.values}: ${x.predicted("mean") / c} vs ${y.predicted("mean")}")
          assert(x.predicted.get("count") == y.predicted.get("count"), s"$what ${x.values}")
        }
      }
    }
  }
}
