package repro.core.reptile

import org.apache.spark.sql.DataFrame
import repro.core.frep.HierRelation
import scala.collection.mutable

/** Successive Reptile invocations over one fact table with one Spark scan
  * (Section 4.4's dynamic updates, Appendix J's cache). The first
  * drill-down runs the data step grouped by every attribute (the leaf
  * groups, all held on the driver) and codes them. A drill-down's group is
  * then Spark's merge of its leaf groups' buffers, in leaf-group order;
  * leaves share a group when they share their rows in its hierarchies,
  * and each hierarchy's relation at a depth is derived once. At the leaf
  * grouping the leaf buffers are read as they are. Counts and errors are
  * the stateless path's; rolled-up means and stds differ from it in the
  * last bits. The caller keeps the drilled depths and filters.
  */
final class ReptileSession(fact: DataFrame, dims: Vector[Dimension], measure: String) {
  private val attrs = dims.flatMap(_.attrs)
  private lazy val (leaf, coded) = {
    val (merged, types) = Reptile.aggregate(fact, Vector(attrs), measure)
    (merged.head, Drilldown.code(merged.head, attrs.map(types)))
  }
  private val relations = mutable.Map.empty[(Dimension, Int), (HierRelation, Array[Int])]

  private def select(as: Vector[String]): Coded = coded.select(as.map(attrs.indexOf))

  /** Drill-down `used`, as `Reptile.collectDrilldown` collects it. */
  def drilldown(used: Vector[(Dimension, Int)]): Drilldown = {
    require(used.forall(u => dims.contains(u._1)), s"a dimension of $used is not the session's")
    select(Drilldown.attrsOf(used)).requireGroups(Drilldown.attrsOf(used))
    val (hiers, leafRows) = used.map { case (d, dep) =>
      relations.getOrElseUpdate((d, dep), Drilldown.hierarchy(d, dep, select(d.attrs.take(dep))))
    }.unzip
    // A leaf's group is its matrix row; groups are numbered as met.
    val strides = hiers.map(_.total.toLong).scanRight(1L)(Math.multiplyExact).tail
    val index = new java.util.HashMap[java.lang.Long, Integer]()
    val first = new Array[Int](leaf.groups)
    val rolled = new GroupBuffers(0)
    (0 until leaf.groups).foreach { g =>
      val row = hiers.indices.foldLeft(0L)((r, h) => r + leafRows(h)(g) * strides(h))
      rolled.merge(index.computeIfAbsent(row, _ => { first(rolled.groups) = g; rolled.add() }), leaf, g)
    }
    Drilldown.assemble(used, hiers, leafRows.map(rows => Array.tabulate(rolled.groups)(k => rows(first(k)))),
      if (rolled.groups == leaf.groups) leaf else rolled, measure)
  }

  /** `Reptile.rankDim` over this session's drill-downs. */
  def rankDim(drilled: Map[String, Int], filters: Map[String, String], complaint: Complaint, targetDim: String,
              aux: Seq[AuxDataset] = Nil, cfg: ReptileConfig = ReptileConfig()): DimRankResult =
    Reptile.rank(_.map(drilldown), dims, drilled, filters, complaint, Some(targetDim), aux, cfg).head

  /** `Reptile.recommend` over this session's drill-downs. */
  def recommend(drilled: Map[String, Int], filters: Map[String, String], complaint: Complaint,
                aux: Seq[AuxDataset] = Nil, cfg: ReptileConfig = ReptileConfig()): Vector[DimRankResult] =
    Reptile.rank(_.map(drilldown), dims, drilled, filters, complaint, None, aux, cfg)
}
