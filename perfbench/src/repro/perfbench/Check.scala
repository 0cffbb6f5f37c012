package repro.perfbench

import org.apache.spark.sql.functions.col
import repro.Oracle
import repro.core.reptile.{DimRankResult, GroupStats, Reptile}

/** Output checks. Each returns `None` when the output is correct and a
  * reason otherwise.
  */
object Check {

  /** Spark sums in partition order and the driver in row order, so means
    * and standard deviations agree to rounding, not bit for bit.
    */
  private val RelTol = 1e-9

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= RelTol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Every candidate's observed count, mean and std, recomputed on the
    * driver from the generated rows. Counts must agree exactly.
    */
  def observed(rows: Rows, results: Vector[DimRankResult]): Option[String] =
    results.iterator.flatMap { res =>
      res.candidates.iterator.flatMap { c =>
        val attrs = c.values.keys.toVector.sorted
        val want = rows.groupStats(attrs).getOrElse(attrs.map(c.values), GroupStats.empty)
        val got = c.observed
        if (got.count == want.count && close(got.mean, want.mean) && close(got.std, want.std)) None
        else Some(s"${res.dim}/${res.attr} group ${c.values}: engine $got, rows $want")
      }
    }.nextOption()

  /** The traced ranking must equal the engine's: the same groups in the
    * same order, with the same scores. Groups whose scores tie may swap.
    */
  def sameRanking(engine: Vector[DimRankResult], traced: Vector[DimRankResult]): Option[String] =
    if (engine.map(r => (r.dim, r.attr)) != traced.map(r => (r.dim, r.attr)))
      Some(s"hierarchy order ${engine.map(_.dim)} vs ${traced.map(_.dim)}")
    else engine.zip(traced).iterator.flatMap { case (a, b) =>
      val ra = a.ranked; val rb = b.ranked
      if (ra.size != rb.size) Some(s"${a.dim}: ${ra.size} vs ${rb.size} candidates")
      else ra.zip(rb).iterator.collectFirst {
        case (x, y) if !close(x.score, y.score) ||
            (x.values != y.values && !ra.find(_.values == y.values).exists(c => close(c.score, x.score))) =>
          s"${a.dim}: ${x.values} (${x.score}) vs ${y.values} (${y.score})"
      }
    }.nextOption()

  /** The group statistics behind one ranking, Spark against DuckDB, over
    * the rows of the complaint's parent group (the attributes every
    * candidate shares).
    */
  def oracle(in: Input, res: DimRankResult): Unit = {
    val groupBy = res.candidates.head.values.keys.toVector.sorted
    val fixed = groupBy.filter(a => res.candidates.map(_.values(a)).distinct.size == 1)
    val rows = fixed.foldLeft(in.fact)((df, a) => df.filter(col(a) === res.candidates.head.values(a)))
    val keys = groupBy.map(a => s""""$a"""").mkString(", ")
    val m = s""""${in.measure}"::DOUBLE"""
    Oracle.assertEquivalent(
      Reptile.drilldownStats(rows, groupBy, in.measure),
      s"""SELECT $keys, count(*)::DOUBLE AS stat_count, avg($m) AS stat_mean,
         |       coalesce(stddev_samp($m), 0.0) AS stat_std, sum($m) AS stat_sum
         |FROM fact GROUP BY $keys""".stripMargin,
      "fact" -> rows,
    )
  }
}
