package repro.core.fmatrix

import repro.core.frep.HierRelation
import repro.core.linalg.Mat

/** One column of the feature matrix.
  *
  * A column is bound to a single attribute of a single hierarchy (the
  * paper's default/auxiliary/custom single-attribute features, Section 3.3):
  * the cell value of a row is `f(value of that attribute in the row)`.
  * `hierIdx == -1` denotes the intercept column (constant 1).
  */
final case class FeatureColumn(label: String, hierIdx: Int, attrIdx: Int, f: String => Double)

object FeatureColumn {
  val Intercept: FeatureColumn = FeatureColumn("intercept", -1, -1, _ => 1.0)
}

/** Every cluster gram `X_i^T X_i` in block-plus-rank-2 form:
  *   G_i = D_b + U_i C_b U_i^T,  U_i = [u_i | s_b],  C_b = [[len_b, 1], [1, 0]],
  * with b = blockOf(i). Per block: `d(b)` (m x m, row-major) holds the
  * pair sums of the columns that vary inside the block, `s(b)` their sums,
  * `len(b)` its row count. Per cluster: `u` (numClusters x m, cluster-major)
  * holds the values of the columns constant inside the cluster, zero at the
  * varying ones; the factorised matrix hands out its own table here, so
  * `u` is read, never written. An empty `u` (and `s`) means no rank-2
  * term: G_i = D_b.
  */
final case class BlockGrams(
    blockOf: Array[Int],
    d: Array[Array[Double]],
    s: Array[Array[Double]],
    len: Array[Int],
    u: Array[Double],
) {
  def numBlocks: Int = d.length
  def rank2: Boolean = u.nonEmpty
}

/** Factorised feature matrix over a list of hierarchy relations.
  *
  * The (conceptual) matrix has one row per element of the cartesian product
  * of the hierarchies' rows, enumerated lexicographically with the LAST
  * hierarchy varying fastest — the paper's requirement that the drill-down
  * hierarchy is ordered last, so model "clusters" (parent groups of the
  * drill-down attribute) are contiguous row ranges.
  *
  * None of the matrix operations materialize the n x m matrix. They use the
  * decomposed aggregates (COUNT / COF / TOTAL, Section 4.2) which reduce to
  * per-hierarchy segment scans:
  *  - gram: per-hierarchy pair sums scaled by the other hierarchies' TOTALs
  *    (cross-hierarchy COF is a cartesian product and never materialized);
  *  - left multiplication (v^T X): v's marginal over each hierarchy, dotted
  *    with the per-row feature values of that hierarchy's columns;
  *  - right multiplication (X a): one term per hierarchy row, expanded
  *    over the cartesian product by additions alone;
  *  - per-cluster variants: per-parent-block statistics are computed once
  *    and shared across all outer combinations (work sharing, Appendix F).
  */
final class FactorizedMatrix(val hiers: Vector[HierRelation], val cols: Vector[FeatureColumn]) {
  require(hiers.nonEmpty, "no hierarchies")
  cols.foreach { c =>
    require(c.hierIdx >= -1 && c.hierIdx < hiers.size, s"bad hierIdx in ${c.label}")
    if (c.hierIdx >= 0)
      require(c.attrIdx >= 0 && c.attrIdx < hiers(c.hierIdx).depth, s"bad attrIdx in ${c.label}")
  }

  val m: Int = cols.size
  val H: Int = hiers.size
  val totals: Vector[Int] = hiers.map(_.total)

  /** Rows of the conceptual matrix (cartesian product size). */
  val n: Int = {
    val p = totals.map(_.toLong).product
    require(p <= Int.MaxValue, s"matrix too tall: $p rows")
    p.toInt
  }

  /** Product of totals of hierarchies strictly after h (stride of h). */
  val innerSize: Vector[Int] = totals.scanRight(1)(_ * _).tail

  /** Product of totals of hierarchies strictly before h. */
  val outerSize: Vector[Int] = totals.scanLeft(1)(_ * _).init

  /** Per column: the feature value for each row of its hierarchy relation
    * (null for the intercept). Isolates the attribute->feature mapping from
    * the matrix (Appendix B's attribute/feature isolation).
    */
  private val colVals: Array[Array[Double]] = cols.map { c =>
    if (c.hierIdx < 0) null
    else {
      val rel = hiers(c.hierIdx)
      Array.tabulate(rel.total)(r => c.f(rel.rows(r)(c.attrIdx)))
    }
  }.toArray

  /** Sum of the column's feature values over its hierarchy's rows. */
  private val sumF: Array[Double] = Array.tabulate(m) { j =>
    if (colVals(j) == null) Double.NaN else colVals(j).sum
  }

  private def pairSum(j: Int, k: Int): Double = {
    val a = colVals(j); val b = colVals(k)
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  // ---------------------------------------------------------------- gram

  /** X^T X without materializing X (Algorithm 2 generalization). */
  def gram: Mat = {
    val g = Mat.zeros(m, m)
    var j = 0
    while (j < m) {
      var k = j
      while (k < m) {
        val v = gramEntry(j, k)
        g(j, k) = v; g(k, j) = v
        k += 1
      }
      j += 1
    }
    g
  }

  private def gramEntry(j: Int, k: Int): Double = {
    val hj = cols(j).hierIdx; val hk = cols(k).hierIdx
    if (hj < 0 && hk < 0) n.toDouble
    else if (hj < 0) (n.toDouble / totals(hk)) * sumF(k)
    else if (hk < 0) (n.toDouble / totals(hj)) * sumF(j)
    else if (hj == hk) (n.toDouble / totals(hj)) * pairSum(j, k)
    else (n.toDouble / totals(hj) / totals(hk)) * sumF(j) * sumF(k)
  }

  // ------------------------------------------------- left multiplication

  /** X^T v for an n-vector v (the paper's left multiplication `v^T X`).
    * A column of hierarchy h depends only on h's row, so its entry is the
    * dot product of its per-row values with v's marginal over h. The
    * marginals come from summing v down one hierarchy at a time, last
    * first: about two additions per element of v, where a dense product
    * costs m multiply-adds.
    */
  def xtv(v: Array[Double]): Array[Double] = {
    require(v.length == n, s"xtv length mismatch: ${v.length} vs $n")
    val marg = new Array[Array[Double]](H)
    var w = v
    var h = H - 1
    while (h >= 0) {
      val th = totals(h)
      val mh = new Array[Double](th)
      val next = new Array[Double](w.length / th)
      var p = 0
      while (p < next.length) {
        val base = p * th
        var acc = 0.0
        var r = 0
        while (r < th) { val x = w(base + r); mh(r) += x; acc += x; r += 1 }
        next(p) = acc
        p += 1
      }
      marg(h) = mh
      w = next
      h -= 1
    }
    val out = new Array[Double](m)
    var j = 0
    while (j < m) {
      val hj = cols(j).hierIdx
      out(j) = if (hj < 0) w(0) else Mat.dot(colVals(j), marg(hj))
      j += 1
    }
    out
  }

  // ------------------------------------------------ right multiplication

  /** X a for an m-vector a (right multiplication). Row i's value is the
    * intercept plus one term per hierarchy that depends only on that
    * hierarchy's row, so each term is computed once per hierarchy row and
    * the result is expanded hierarchy by hierarchy (last fastest): about
    * one addition per output row, where a dense product costs m.
    */
  def xv(a: Array[Double]): Array[Double] = {
    require(a.length == m, s"xv length mismatch: ${a.length} vs $m")
    var const = 0.0
    val contrib = Array.tabulate(H)(h => new Array[Double](totals(h)))
    var j = 0
    while (j < m) {
      val h = cols(j).hierIdx
      if (h < 0) const += a(j)
      else {
        val c = contrib(h); val cv = colVals(j); val aj = a(j)
        var r = 0
        while (r < c.length) { c(r) += aj * cv(r); r += 1 }
      }
      j += 1
    }
    var out = Array(const)
    var h = 0
    while (h < H) {
      val c = contrib(h); val th = c.length
      val next = new Array[Double](out.length * th)
      var p = 0
      while (p < out.length) {
        val base = out(p); val off = p * th
        var r = 0
        while (r < th) { next(off + r) = base + c(r); r += 1 }
        p += 1
      }
      out = next
      h += 1
    }
    out
  }

  // ------------------------------------------------------------ clusters

  /** Clusters = parent groups of the last hierarchy's most specific
    * attribute, crossed with every combination of the outer hierarchies.
    * Cluster rows are contiguous (the drill-down hierarchy is last).
    */
  val lastHier: HierRelation = hiers(H - 1)
  val blocks: Vector[(Int, Int)] = lastHier.parentBlocks
  val numClusters: Int = outerSize(H - 1) * blocks.size

  /** (start, len) row ranges of each cluster, in row order. */
  lazy val clusterRanges: Array[(Int, Int)] = Array.tabulate(numClusters) { i =>
    val (s, l) = blocks(i % blocks.size)
    (i / blocks.size * totals(H - 1) + s, l)
  }

  /** Column classification for cluster ops: a column "varies" within a
    * cluster iff it is bound to the last hierarchy's most specific attr.
    */
  private val lastAttr = lastHier.depth - 1
  private val varyingCols: Array[Int] =
    cols.indices.filter(j => cols(j).hierIdx == H - 1 && cols(j).attrIdx == lastAttr).toArray
  private val constCols: Array[Int] = cols.indices.filterNot(varyingCols.contains(_)).toArray
  private val blockStart: Array[Int] = blocks.map(_._1).toArray
  /** Each last-hierarchy row's parent block. */
  private val blockOfRow: Array[Int] = blocks.indices.flatMap(b => Array.fill(blocks(b)._2)(b)).toArray

  /** Per cluster (numClusters x m, cluster-major): X's row at the cluster's
    * first row, zero at the varying columns, i.e. the values of the columns
    * that are constant inside the cluster. Cluster i lies in parent block
    * `i % blocks.size` of outer combination `i / blocks.size`, so an outer
    * hierarchy h's row is that combination's digit of stride
    * `innerSize(h) / totals(H-1)`, and the last hierarchy's is the block's
    * first row.
    */
  private lazy val clusterConst: Array[Double] = {
    val nb = blocks.size
    val out = new Array[Double](numClusters * m)
    constCols.foreach { j =>
      val h = cols(j).hierIdx
      val cv = colVals(j)
      val (stride, th) = if (h >= 0) (innerSize(h) / totals(H - 1), totals(h)) else (1, 1)
      var ci = 0
      while (ci < numClusters) {
        out(ci * m + j) =
          if (h < 0) 1.0
          else if (h == H - 1) cv(blockStart(ci % nb))
          else cv((ci / nb / stride) % th)
        ci += 1
      }
    }
    out
  }

  /** The cluster grams as per-block pair sums plus each cluster's constant
    * column values (see BlockGrams): O(blocks * m^2 + clusters * m), where
    * every dense gram costs O(clusters * m^2). The per-block sums of the
    * varying columns are computed once and shared across all outer
    * combinations (per-cluster work sharing, Appendix F).
    */
  def blockGrams: BlockGrams = {
    val nv = varyingCols.length
    val d = blocks.toArray.map { case (s, l) =>
      val out = new Array[Double](m * m)
      var x = 0
      while (x < nv) {
        val j = varyingCols(x)
        var y = x
        while (y < nv) {
          val k = varyingCols(y)
          var acc = 0.0; var r = s
          while (r < s + l) { acc += colVals(j)(r) * colVals(k)(r); r += 1 }
          out(j * m + k) = acc; out(k * m + j) = acc
          y += 1
        }
        x += 1
      }
      out
    }
    val sums = blocks.toArray.map { case (s, l) =>
      val out = new Array[Double](m)
      varyingCols.foreach { j => var acc = 0.0; var r = s; while (r < s + l) { acc += colVals(j)(r); r += 1 }; out(j) = acc }
      out
    }
    BlockGrams(Array.tabulate(numClusters)(_ % blocks.size), d, sums, blocks.map(_._2).toArray, clusterConst)
  }

  /** X_i^T v_i for every cluster (per-cluster left multiplication), flat:
    * cluster i's m-vector is `out(i*m until (i+1)*m)`.
    */
  def clusterXtv(v: Array[Double]): Array[Double] = {
    require(v.length == n, s"clusterXtv length mismatch")
    val prefix = new Array[Double](n + 1)
    var i = 0
    while (i < n) { prefix(i + 1) = prefix(i) + v(i); i += 1 }
    val u = clusterConst
    val ranges = clusterRanges
    val nb = blocks.size
    val out = new Array[Double](numClusters * m)
    var ci = 0
    while (ci < numClusters) {
      val start = ranges(ci)._1; val len = ranges(ci)._2
      val bs = blockStart(ci % nb)
      val off = ci * m
      val rangeSum = prefix(start + len) - prefix(start)
      var x = 0
      while (x < constCols.length) { val j = constCols(x); out(off + j) = u(off + j) * rangeSum; x += 1 }
      x = 0
      while (x < varyingCols.length) {
        val j = varyingCols(x)
        var acc = 0.0; var r = 0
        while (r < len) { acc += colVals(j)(bs + r) * v(start + r); r += 1 }
        out(off + j) = acc
        x += 1
      }
      ci += 1
    }
    out
  }

  /** vertcat(X_1 a_1, ..., X_G a_G) (per-cluster right multiplication);
    * a_i is `as(i*m until (i+1)*m)`.
    */
  def clusterXa(as: Array[Double]): Array[Double] = {
    require(as.length == numClusters * m, s"clusterXa length mismatch")
    val u = clusterConst
    val ranges = clusterRanges
    val nb = blocks.size
    val out = new Array[Double](n)
    var ci = 0
    while (ci < numClusters) {
      val start = ranges(ci)._1; val len = ranges(ci)._2
      val bs = blockStart(ci % nb)
      val off = ci * m
      var base = 0.0
      var x = 0
      while (x < constCols.length) { val j = constCols(x); base += u(off + j) * as(off + j); x += 1 }
      var r = 0
      while (r < len) {
        var v = base
        var y = 0
        while (y < varyingCols.length) { val j = varyingCols(y); v += colVals(j)(bs + r) * as(off + j); y += 1 }
        out(start + r) = v
        r += 1
      }
      ci += 1
    }
    out
  }

  // -------------------------------------------------------------- helpers

  def indexOf(hierRows: Seq[Int]): Int = {
    require(hierRows.size == H, "indexOf arity mismatch")
    hierRows.indices.map(h => hierRows(h) * innerSize(h)).sum
  }

  /** Writes X's row `r` into `out` and returns its cluster (see `clusterConst`). */
  def row(r: Int, out: Array[Double]): Int = {
    var j = 0
    while (j < m) {
      val h = cols(j).hierIdx
      out(j) = if (h < 0) 1.0 else colVals(j)(r / innerSize(h) % totals(h))
      j += 1
    }
    r / totals(H - 1) * blocks.size + blockOfRow(r % totals(H - 1))
  }

  /** Fully materialized n x m matrix — only for tests and the naive
    * ("Matlab over Lapack") baseline; this is exactly the cost the
    * factorised representation avoids.
    */
  def materialize: Mat = {
    val out = Mat.zeros(n, m)
    val x = new Array[Double](m)
    (0 until n).foreach { i => row(i, x); System.arraycopy(x, 0, out.a, i * m, m) }
    out
  }
}
