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
  * iteration for right multiplication). The constructor takes the rows
  * sorted and distinct, validates the FDs and fails loudly if a child
  * value appears under two parents.
  */
final class HierRelation private[core] (
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

  /** Per attribute: the contiguous runs of each value, in row order. A
    * run's length is the value's COUNT within the hierarchy, and also its
    * COF with any ancestor, since a value has one parent.
    *
    * One pass over the rows: where row `i` first differs from row `i - 1`
    * at attribute `a`, the runs of `a` and of every later attribute end.
    * A run is thus a run of the prefix `A_1..A_a`, which under the FDs is
    * a run of the value itself; a value that recurs in a second run is
    * exactly an FD violation (one child, two parents, e.g. one village in
    * two districts). The error names the first such attribute and, in it,
    * the value that recurs first.
    */
  val segments: Vector[Vector[Seg]] = {
    val segs = Array.fill(depth)(Vector.newBuilder[Seg])
    val seen = Array.fill(depth)(scala.collection.mutable.HashSet.empty[String])
    val recurring = new Array[String](depth)
    val start = new Array[Int](depth)
    var i = 1
    while (i <= total) {
      var a = 0
      if (i < total) while (rows(i)(a) == rows(i - 1)(a)) a += 1
      while (a < depth) {
        val v = rows(start(a))(a)
        if (!seen(a).add(v) && recurring(a) == null) recurring(a) = v
        segs(a) += Seg(v, start(a), i - start(a))
        start(a) = i
        a += 1
      }
      i += 1
    }
    val bad = recurring.indexWhere(_ != null)
    if (bad >= 0)
      throw new IllegalArgumentException(
        s"FD violation in hierarchy $dim: value '${recurring(bad)}' of ${attrs(bad)} appears under multiple parents")
    segs.iterator.map(_.result()).toVector
  }

  /** Blocks of rows sharing the full prefix `A_1..A_{k-1}` — i.e. the
    * children groups ("clusters") of the most specific attribute: the runs
    * of `A_{k-1}`. A single-attribute hierarchy has one block covering all
    * rows.
    */
  val parentBlocks: Vector[(Int, Int)] =
    if (depth == 1) Vector((0, total)) else segments(depth - 2).map(s => (s.start, s.len))

  lazy val indexByRow: Map[Vector[String], Int] = rows.zipWithIndex.toMap

  def rowIndexOf(tuple: Seq[String]): Int =
    indexByRow.getOrElse(tuple.toVector,
      throw new NoSuchElementException(s"tuple ${tuple.mkString(",")} not in hierarchy $dim"))

  /** Per attribute: each value's run. */
  private lazy val segmentOf: Vector[Map[String, Seg]] = segments.map(_.iterator.map(s => s.value -> s).toMap)

  /** Row range [start, end) whose prefix (first `prefix.size` attrs)
    * matches: the run of the prefix's last value, if its first row carries
    * the whole prefix.
    */
  def blockOfPrefix(prefix: Seq[String]): (Int, Int) = {
    if (prefix.isEmpty) (0, total)
    else {
      val p = prefix.toVector
      val seg = segmentOf.lift(p.size - 1).flatMap(_.get(p.last)).filter(s => rows(s.start).take(p.size) == p)
      require(seg.isDefined, s"prefix ${p.mkString(",")} not found in hierarchy $dim")
      (seg.get.start, seg.get.start + seg.get.len)
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
    * the attribute at `cols(i)`. A null value is rejected (`requireValue`).
    */
  def keyOf(row: Row, cols: Seq[Int], attrs: Seq[String]): Vector[String] =
    cols.indices.map { i =>
      requireValue(!row.isNullAt(cols(i)), attrs(i))
      row.get(cols(i)).toString
    }.toVector

  /** Rejects a null value of attribute `attr`: as a string it would merge
    * with a real value "null".
    */
  def requireValue(present: Boolean, attr: String): Unit =
    if (!present) throw new IllegalArgumentException(s"null value of attribute $attr")
}
