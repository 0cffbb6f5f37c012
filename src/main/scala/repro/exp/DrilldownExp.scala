package repro.exp

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import repro.core.reptile.{Dimension, Drilldown, Reptile, ReptileSession}
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Figure 9: drill-down optimization. A fact table over two 6-attribute
  * hierarchies A and B; three successive Reptile invocations each collect
  * the statistics of both candidate drill-downs (A, then B, one level
  * deeper) and commit A. Static runs the engine's data step
  * (`Reptile.collectDrilldown`, one Spark scan) per candidate; Dynamic
  * opens a `ReptileSession` per invocation, whose candidates roll up from
  * one scan; Cache+Dynamic keeps one session, and so its scan and every
  * relation it built, for all invocations.
  */
object DrilldownExp {

  final case class DrillRow(strategy: String, bDepth: Int, invocation: Int, evalAMs: Double, evalBMs: Double)

  /** Six attributes, least to most specific; in `fact`, level k has leaves/branch^(5-k) values. */
  def dimension(name: String): Dimension = Dimension(name, (0 until 6).map(k => s"$name$k").toVector)

  /** Row i joins A's leaf i with B's leaf perm(i), a permutation fixed by
    * `seed`, and carries a measure `m`.
    */
  def fact(spark: SparkSession, leaves: Int, branch: Int = 4, seed: Long = 9): DataFrame = {
    val rng = new Random(seed)
    val perm = rng.shuffle((0 until leaves).toVector)
    def path(name: String, leaf: Int) = (0 until 6).map(k => f"$name$k-${leaf / math.pow(branch, 5 - k).toLong}%07d")
    val schema = StructType(Seq("A", "B").flatMap(dimension(_).attrs).map(StructField(_, StringType)) :+
      StructField("m", DoubleType))
    spark.createDataFrame((0 until leaves).map(i =>
      Row.fromSeq(path("A", i) ++ path("B", perm(i)) :+ (10.0 + rng.nextGaussian()))).asJava, schema)
  }

  def run(spark: SparkSession, bDepths: Seq[Int] = Seq(3, 4, 5), leaves: Int = 50000,
          invocations: Int = 3): Vector[DrillRow] = {
    val df = fact(spark, leaves)
    val dims = Vector(dimension("A"), dimension("B"))
    def session(): Vector[(Dimension, Int)] => Drilldown = new ReptileSession(df, dims, "m").drilldown
    val rows = Vector.newBuilder[DrillRow]
    for (strategy <- Seq("Static", "Dynamic", "Cache+Dynamic"); bDepth <- bDepths) {
      val cached = session()
      for (inv <- 1 to invocations) {
        val collect = strategy match {
          case "Static"  => Reptile.collectDrilldown(df, _: Vector[(Dimension, Int)], "m")
          case "Dynamic" => session()
          case _         => cached
        }
        // A is drilled to depth 3 before the first invocation, and each commits A.
        val drilled = Map("A" -> (2 + inv), "B" -> bDepth)
        val (_, aMs) = Timing.ms(collect(Reptile.drilldownOf(dims, drilled, "A")))
        val (_, bMs) = Timing.ms(collect(Reptile.drilldownOf(dims, drilled, "B")))
        rows += DrillRow(strategy, bDepth, inv, aMs, bMs)
      }
    }
    rows.result()
  }

  def printRows(rows: Seq[DrillRow]): Unit = {
    Timing.printTable("Figure 9: drill-down optimization",
      Seq("strategy", "bDepth", "invocation", "evalA_ms", "evalB_ms", "total_ms"),
      rows.map(r => Seq(r.strategy, r.bDepth.toString, r.invocation.toString,
        Timing.f2(r.evalAMs), Timing.f2(r.evalBMs), Timing.f2(r.evalAMs + r.evalBMs))))
    val totals = rows.groupBy(_.strategy).map { case (s, rs) => s -> rs.map(r => r.evalAMs + r.evalBMs).sum }
    Timing.printTable("Figure 9 totals (3 invocations, all B depths)",
      Seq("strategy", "total_ms"),
      totals.toSeq.sortBy(_._2).map { case (s, t) => Seq(s, Timing.f1(t)) })
  }
}
