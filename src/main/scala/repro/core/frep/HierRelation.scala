package repro.core.frep

import org.apache.spark.sql.{DataFrame, Row}

/** One segment of contiguous rows sharing a value of some attribute. */
final case class Seg(value: String, start: Int, len: Int)

/** The relation of one hierarchical dimension in the factorised
  * representation: the distinct tuples over its attribute chain
  * `[A_1, ..., A_k]` (least to most specific), sorted lexicographically.
  *
  * The hierarchy's functional dependencies (`A_n -> A_m` for `m < n`) make
  * every attribute's value occupy a single contiguous run of rows once the
  * relation is sorted — exactly the property the factorised matrix
  * operations exploit (range sums for left multiplication, row-diff
  * iteration for right multiplication). The constructor validates the FDs
  * and fails loudly if a child value appears under two parents.
  */
final class HierRelation private (
    val dim: String,
    val attrs: Vector[String],
    val rows: Vector[Vector[String]],
) {
  require(attrs.nonEmpty, s"hierarchy $dim has no attributes")
  require(rows.nonEmpty, s"hierarchy $dim has no rows")
  require(rows.forall(_.size == attrs.size), s"hierarchy $dim: ragged rows")

  /** Number of most-specific tuples (leaves) — `TOTAL` of this hierarchy. */
  val total: Int = rows.size

  def depth: Int = attrs.size
  def attrIndex(a: String): Int = {
    val i = attrs.indexOf(a)
    require(i >= 0, s"attribute $a not in hierarchy $dim (${attrs.mkString(",")})")
    i
  }

  /** Per attribute: the contiguous runs of each value, in row order.
    * FD-validated: a value that re-appears after its run ended means the
    * hierarchy is not a tree (e.g. one village in two districts).
    */
  val segments: Vector[Vector[Seg]] = attrs.indices.toVector.map { ai =>
    val segs = Vector.newBuilder[Seg]
    val seen = scala.collection.mutable.HashSet.empty[String]
    var start = 0
    var i = 1
    // A segment is a run of rows sharing the full prefix A_1..A_i: under the
    // FDs this equals a run of the value itself; a value recurring in two
    // prefix-runs is exactly an FD violation (one child, two parents).
    while (i <= total) {
      if (i == total || rows(i).take(ai + 1) != rows(start).take(ai + 1)) {
        val v = rows(start)(ai)
        if (!seen.add(v))
          throw new IllegalArgumentException(
            s"FD violation in hierarchy $dim: value '$v' of ${attrs(ai)} appears under multiple parents")
        segs += Seg(v, start, i - start)
        start = i
      }
      i += 1
    }
    segs.result()
  }

  /** COUNT_{A_i} restricted to this hierarchy: leaves per value. */
  def countOf(ai: Int): Map[String, Int] = segments(ai).map(s => s.value -> s.len).toMap

  /** COF_{A_i, A_j} restricted to this hierarchy (both attrs inside it). */
  def cofWithin(ai: Int, aj: Int): Map[(String, String), Int] = {
    val m = scala.collection.mutable.HashMap.empty[(String, String), Int]
    rows.foreach { r => val k = (r(ai), r(aj)); m.update(k, m.getOrElse(k, 0) + 1) }
    m.toMap
  }

  /** Blocks of rows sharing the full prefix `A_1..A_{k-1}` — i.e. the
    * children groups ("clusters") of the most specific attribute. A
    * single-attribute hierarchy has one block covering all rows.
    */
  val parentBlocks: Vector[(Int, Int)] =
    if (attrs.size == 1) Vector((0, total))
    else {
      val blocks = Vector.newBuilder[(Int, Int)]
      var start = 0
      var i = 1
      val p = attrs.size - 1
      while (i <= total) {
        if (i == total || rows(i).take(p) != rows(start).take(p)) { blocks += ((start, i - start)); start = i }
        i += 1
      }
      blocks.result()
    }

  /** Distinct prefixes of the first `d` attributes, as a new relation. */
  def truncate(d: Int): HierRelation = {
    require(d >= 1 && d <= attrs.size, s"bad truncate depth $d for $dim")
    if (d == attrs.size) this
    else HierRelation(dim, attrs.take(d), rows.map(_.take(d)))
  }

  lazy val indexByRow: Map[Vector[String], Int] = rows.zipWithIndex.toMap

  def rowIndexOf(tuple: Seq[String]): Int =
    indexByRow.getOrElse(tuple.toVector,
      throw new NoSuchElementException(s"tuple ${tuple.mkString(",")} not in hierarchy $dim"))

  /** Row range [start, end) whose prefix (first `prefix.size` attrs) matches. */
  def blockOfPrefix(prefix: Seq[String]): (Int, Int) = {
    if (prefix.isEmpty) (0, total)
    else {
      val p = prefix.toVector
      val first = rows.indexWhere(_.take(p.size) == p)
      require(first >= 0, s"prefix ${p.mkString(",")} not found in hierarchy $dim")
      var end = first
      while (end < total && rows(end).take(p.size) == p) end += 1
      (first, end)
    }
  }
}

object HierRelation {
  /** Builds a sorted, de-duplicated, FD-validated hierarchy relation. */
  def apply(dim: String, attrs: Seq[String], tuples: Seq[Seq[String]]): HierRelation = {
    val distinctSorted = tuples.map(_.toVector).distinct
      .sorted(scala.math.Ordering.Implicits.seqOrdering[Vector, String])
    new HierRelation(dim, attrs.toVector, distinctSorted.toVector)
  }

  /** Distinct attribute combinations observed in `df` (a Spark job). */
  def fromDataFrame(df: DataFrame, dim: String, attrs: Seq[String]): HierRelation = {
    import org.apache.spark.sql.functions.col
    val rows = df.select(attrs.map(col): _*).distinct().collect()
      .map(r => keyOf(r, attrs.indices, attrs))
      .toSeq
    apply(dim, attrs, rows)
  }

  /** The values of `row` at positions `cols` as strings; `attrs(i)` names
    * the attribute at `cols(i)`. A null value is rejected: as a string it
    * would merge with a real value "null".
    */
  def keyOf(row: Row, cols: Seq[Int], attrs: Seq[String]): Vector[String] =
    cols.indices.map { i =>
      if (row.isNullAt(cols(i)))
        throw new IllegalArgumentException(s"null value of attribute ${attrs(i)}")
      row.get(cols(i)).toString
    }.toVector
}
