package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.reptile._

/** Everything one engine call needs except the drill-down target. */
final case class Query(
    fact: DataFrame,
    dims: Vector[Dimension],
    drilled: Map[String, Int],
    filters: Map[String, String],
    complaint: Complaint,
    measure: String,
    cfg: ReptileConfig,
)

/** The two public engine entry points a workload calls. The untraced run
  * uses [[Direct]]; the traced run uses [[TracedEngine]], which rebuilds
  * the same computation from the layers' public functions.
  */
trait Engine {
  def rankDim(q: Query, target: String): DimRankResult
  def recommend(q: Query): Vector[DimRankResult]
}

final class Direct(spark: SparkSession) extends Engine {
  def rankDim(q: Query, target: String): DimRankResult =
    Reptile.rankDim(spark, q.fact, q.dims, q.drilled, q.filters, q.complaint, q.measure, target, Nil, q.cfg)

  def recommend(q: Query): Vector[DimRankResult] =
    Reptile.recommend(spark, q.fact, q.dims, q.drilled, q.filters, q.complaint, q.measure, Nil, q.cfg)
}
