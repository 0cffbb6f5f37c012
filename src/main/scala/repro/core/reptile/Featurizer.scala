package repro.core.reptile

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.frep.HierRelation
import repro.core.fmatrix.FeatureColumn

/** An auxiliary dataset (Section 3.3.2): joinable on a single attribute,
  * contributing its measure as a feature column (e.g. village -> rainfall).
  */
final case class AuxDataset(name: String, df: DataFrame, joinAttr: String, measure: String)

/** Builds the feature columns of the (factorised) feature matrix.
  *
  * Default features (Section 3.3.1): every grouping attribute becomes one
  * column whose value is the *median* of the group statistic over the
  * groups sharing that attribute value (main effects, not one-hot). The
  * medians are computed on the driver from the collected drill-down
  * statistics and equal Spark's `median` bit for bit.
  *
  * An attribute whose values have no parallel groups (fewer than
  * `minParallel` matrix rows per distinct value) is excluded: its main
  * effect would equal the group's own statistic and leak the value being
  * predicted. This is the degenerate case of a most specific drill-down
  * attribute with a single-attribute schema.
  */
object Featurizer {

  /** Featurizes the drill-down statistics in `statsDf`: collects each
    * group's key and `yCol` in one Spark job, resolves each key to its row
    * in every hierarchy of `hiers`, then runs [[fromGroups]]. Groups with a
    * null `yCol` are skipped, as Spark's `median` skips them.
    */
  def build(
      statsDf: DataFrame,
      hiers: Vector[HierRelation],
      yCol: String,
      aux: Seq[AuxDataset],
      minParallel: Double = 2.0,
  ): Vector[FeatureColumn] = {
    val attrs = hiers.flatMap(_.attrs)
    val rows = statsDf.select(attrs.map(col) :+ col(yCol).cast("double"): _*).collect()
      .filterNot(_.isNullAt(attrs.size))
    val offsets = hiers.scanLeft(0)(_ + _.depth)
    val groupRows = hiers.indices.map { h =>
      rows.map(r => hiers(h).rowIndexOf(HierRelation.keyOf(r, offsets(h) until offsets(h + 1), hiers(h).attrs)))
    }.toVector
    fromGroups(groupRows, rows.map(_.getDouble(attrs.size)), hiers, aux, minParallel)
  }

  /** Featurizes on the driver. Group g is row `groupRows(h)(g)` of
    * hierarchy h; `targets(g)` is the statistic its model predicts.
    */
  def fromGroups(
      groupRows: Vector[Array[Int]],
      targets: Array[Double],
      hiers: Vector[HierRelation],
      aux: Seq[AuxDataset],
      minParallel: Double = 2.0,
  ): Vector[FeatureColumn] = {
    require(groupRows.forall(_.length == targets.length), s"group rows and ${targets.length} targets differ in length")
    val n = hiers.map(_.total.toLong).product.toDouble
    val cols = Vector.newBuilder[FeatureColumn]
    cols += FeatureColumn.Intercept

    for (h <- hiers.indices; ai <- 0 until hiers(h).depth) {
      val attr = hiers(h).attrs(ai)
      val distinct = hiers(h).segments(ai).size
      if (n / distinct >= minParallel) {
        val map = targets.indices.groupMap(g => hiers(h).rows(groupRows(h)(g))(ai))(targets)
          .map { case (v, ys) => v -> sparkMedian(ys.toArray) }
        val default = if (map.isEmpty) 0.0 else sparkMedian(map.values.toArray)
        cols += FeatureColumn(s"main:$attr", h, ai, v => map.getOrElse(v, default))
      }
    }

    // An aux column whose join matches no hierarchy value would be all
    // zeros: a parameter no data moves, so it is left out.
    for (a <- aux) {
      val loc = locate(hiers, a.joinAttr)
      loc.foreach { case (h, ai) =>
        val rows = a.df.select(col(a.joinAttr), col(a.measure).cast("double")).collect()
        val raw = rows.map(r => String.valueOf(r.get(0)) -> r.getDouble(1)).toMap
        if (hiers(h).segments(ai).exists(s => raw.contains(s.value))) {
          val vals = raw.values.toSeq
          val mu = vals.sum / math.max(vals.size, 1)
          val sd = math.sqrt(vals.map(v => (v - mu) * (v - mu)).sum / math.max(vals.size, 1)) max 1e-12
          cols += FeatureColumn(s"aux:${a.name}", h, ai, v => raw.get(v).map(x => (x - mu) / sd).getOrElse(0.0))
        }
      }
    }
    cols.result()
  }

  /** Spark's exact `median`, i.e. `percentile(v, 0.5)`: sorts the values
    * (NaN last), takes position (count - 1) * 0.5 and, when it is
    * fractional and the two values around it differ, interpolates
    * linearly between them in Spark's order of operations.
    */
  def sparkMedian(values: Array[Double]): Double = {
    require(values.nonEmpty, "median of no values")
    val s = values.clone()
    java.util.Arrays.sort(s)
    val pos = (s.length - 1) * 0.5
    val (lower, higher) = (pos.floor.toInt, pos.ceil.toInt)
    if (lower == higher || s(lower) == s(higher)) s(lower)
    else (higher - pos) * s(lower) + (pos - lower) * s(higher)
  }

  private def locate(hiers: Vector[HierRelation], attr: String): Option[(Int, Int)] =
    hiers.indices.flatMap { h =>
      val ai = hiers(h).attrs.indexOf(attr)
      if (ai >= 0) Some((h, ai)) else None
    }.headOption
}
