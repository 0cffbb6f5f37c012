package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.lit
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import repro.core.reptile.{DimRankResult, GroupStats}
import scala.collection.mutable

/** Generated rows kept on the driver: string attributes and one measure.
  * The output check recomputes group statistics from these, without Spark.
  */
final class Rows(val attrs: Vector[String], val keys: Array[Array[String]], val measure: Array[Double]) {
  require(keys.length == measure.length, "one measure per row")
  private val byAttrs = mutable.HashMap.empty[Vector[String], Map[Vector[String], GroupStats]]

  /** Count, mean and sample std of every group over `groupBy`. */
  def groupStats(groupBy: Vector[String]): Map[Vector[String], GroupStats] =
    byAttrs.getOrElseUpdate(groupBy, {
      val idx = groupBy.map(a => attrs.indexOf(a).ensuring(_ >= 0, s"no attribute $a"))
      val groups = mutable.HashMap.empty[Vector[String], mutable.ArrayBuffer[Double]]
      var i = 0
      while (i < keys.length) {
        groups.getOrElseUpdate(idx.map(keys(i)(_)), mutable.ArrayBuffer.empty) += measure(i)
        i += 1
      }
      groups.view.mapValues(vs => GroupStats.ofValues(vs)).toMap
    })

  def size: Int = keys.length
}

/** One generated input: the cached table the engine sees, and its rows. */
final case class Input(name: String, fact: DataFrame, rows: Rows, measure: String)

object Input {

  /** Builds a fact table from driver-side rows. */
  def of(spark: SparkSession, name: String, rows: Rows, measure: String): Input = {
    val schema = StructType(rows.attrs.map(StructField(_, StringType, nullable = false)) :+
      StructField(measure, DoubleType, nullable = false))
    val data = new java.util.ArrayList[Row](rows.size)
    var i = 0
    while (i < rows.size) { data.add(Row.fromSeq(rows.keys(i).toSeq :+ rows.measure(i))); i += 1 }
    Input(name, spark.createDataFrame(data, schema), rows, measure)
  }

  /** Wraps a generator's local DataFrame, collecting its rows for the check. */
  def fromFrame(name: String, df: DataFrame, measure: String): Input = {
    val attrs = df.columns.toVector.filter(_ != measure)
    val collected = df.select((attrs :+ measure).map(df.col): _*).collect()
    Input(name, df, new Rows(attrs,
      collected.map(r => attrs.indices.map(i => String.valueOf(r.get(i))).toArray),
      collected.map(_.getDouble(attrs.size))), measure)
  }

  /** Caches every input's table, materialising all caches in one job. */
  def cacheAll(inputs: Seq[Input]): Unit = {
    val distinct = inputs.distinct
    distinct.foreach(_.fact.cache())
    distinct.map(_.fact.select(lit(1))).reduce(_ union _).count()
  }
}

/** One complaint the client sends: the engine calls it makes, in order,
  * and whether the answer names the ground-truth group.
  */
final case class Request(
    id: String,
    input: Input,
    run: Engine => Vector[DimRankResult],
    hit: Vector[DimRankResult] => Boolean,
    /** The paper's checkmark for this complaint, where the paper has one. */
    paperHit: Option[Boolean] = None,
)
