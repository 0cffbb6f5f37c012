package repro.core.model

import repro.core.fmatrix.{BlockGrams, FactorizedMatrix}
import repro.core.linalg.Mat

/** The six matrix-operation primitives of Appendix D's EM: gram `X^T X`,
  * right multiplication `X a`, left multiplication `X^T v`, and their
  * per-cluster counterparts. Two implementations: the factorised one
  * (Reptile) and a dense one over the fully materialized matrix (the
  * Lapack/Matlab baseline). Tests assert both produce identical numbers.
  *
  * The EM reads the gram, the cluster grams as `blockGrams` and X's rows
  * (`row`): those y is observed at, and those it predicts. The n-length
  * products serve Figure 7 and the tests. Per-cluster vectors are flat, m
  * per cluster: cluster i's is `(i*m until (i+1)*m)`.
  */
trait MLBackend {
  def n: Int
  def m: Int
  def gram: Mat
  /** Writes X's row `r` into `out` (length m) and returns its cluster. */
  def row(r: Int, out: Array[Double]): Int
  def xv(a: Array[Double]): Array[Double]
  def xtv(v: Array[Double]): Array[Double]
  def numClusters: Int
  def blockGrams: BlockGrams
  def clusterXtv(v: Array[Double]): Array[Double]
  def clusterXa(as: Array[Double]): Array[Double]
  final def clusterXa(as: Array[Array[Double]]): Array[Double] = {
    require(as.length == numClusters, "clusterXa cluster count mismatch")
    clusterXa(Mat.concat(as))
  }

  /** Streams X_i^T X_i for every cluster i, one dense m x m matrix at a
    * time (Figure 15, tests), expanded from `blockGrams`:
    *   G_i = D_b + u_i (len_b u_i^T + s_b^T) + s_b u_i^T.
    * Every cluster's gram is written into one buffer, so the `Mat` passed
    * to `f` is valid only inside that call.
    */
  final def foreachClusterGram(f: (Int, Mat) => Unit): Unit = {
    val bg = blockGrams
    val c = new Array[Double](m)
    val g = new Array[Double](m * m)
    val gram = new Mat(m, m, g)
    var i = 0
    while (i < numClusters) {
      val b = bg.blockOf(i)
      System.arraycopy(bg.d(b), 0, g, 0, m * m)
      if (bg.rank2) {
        val s = bg.s(b); val len = bg.len(b)
        var k = 0
        while (k < m) { c(k) = len * bg.u(i * m + k) + s(k); k += 1 }
        var j = 0
        while (j < m) {
          val uj = bg.u(i * m + j); val sj = s(j)
          k = 0
          while (k < m) { g(j * m + k) += uj * c(k) + sj * bg.u(i * m + k); k += 1 }
          j += 1
        }
      }
      f(i, gram)
      i += 1
    }
  }
}

/** Reptile's backend: operations run on the f-representation directly. */
final class FactorizedBackend(val fm: FactorizedMatrix) extends MLBackend {
  def n: Int = fm.n
  def m: Int = fm.m
  def gram: Mat = fm.gram
  def row(r: Int, out: Array[Double]): Int = fm.row(r, out)
  def xv(a: Array[Double]): Array[Double] = fm.xv(a)
  def xtv(v: Array[Double]): Array[Double] = fm.xtv(v)
  def numClusters: Int = fm.numClusters
  def blockGrams: BlockGrams = fm.blockGrams
  def clusterXtv(v: Array[Double]): Array[Double] = fm.clusterXtv(v)
  def clusterXa(as: Array[Double]): Array[Double] = fm.clusterXa(as)
}

/** Naive backend over a fully materialized matrix — the "Matlab over
  * Lapack" comparison point of the paper's Figure 7/10 experiments.
  */
final class DenseBackend(x: Mat, val clusterRanges: Array[(Int, Int)]) extends MLBackend {
  require(clusterRanges.nonEmpty, "no clusters")
  def n: Int = x.rows
  def m: Int = x.cols
  def gram: Mat = x.t * x
  def xv(a: Array[Double]): Array[Double] = x.mv(a)
  def xtv(v: Array[Double]): Array[Double] = x.tmv(v)
  def numClusters: Int = clusterRanges.length

  private val clusterOf = clusterRanges.indices.flatMap(i => Array.fill(clusterRanges(i)._2)(i)).toArray
  def row(r: Int, out: Array[Double]): Int = { System.arraycopy(x.a, r * m, out, 0, m); clusterOf(r) }

  /** Every cluster is a block of its own, `D_i = X_i^T X_i`, no rank-2
    * term: the EM then inverts one m x m matrix per cluster, as a dense
    * pipeline does.
    */
  def blockGrams: BlockGrams = {
    val d = Array.fill(numClusters)(new Array[Double](m * m))
    val xr = new Array[Double](m)
    (0 until n).foreach { r =>
      val di = d(row(r, xr))
      var j = 0
      while (j < m) { var k = 0; while (k < m) { di(j * m + k) += xr(j) * xr(k); k += 1 }; j += 1 }
    }
    BlockGrams(Array.range(0, numClusters), d, Array.empty, clusterRanges.map(_._2), Array.emptyDoubleArray)
  }

  def clusterXtv(v: Array[Double]): Array[Double] = {
    val out = new Array[Double](numClusters * m)
    val xr = new Array[Double](m)
    (0 until n).foreach { r =>
      val off = row(r, xr) * m
      var j = 0
      while (j < m) { out(off + j) += v(r) * xr(j); j += 1 }
    }
    out
  }

  def clusterXa(as: Array[Double]): Array[Double] = {
    require(as.length == numClusters * m, "clusterXa length mismatch")
    val out = new Array[Double](n)
    val xr = new Array[Double](m)
    (0 until n).foreach { r =>
      val off = row(r, xr) * m
      var j = 0
      while (j < m) { out(r) += xr(j) * as(off + j); j += 1 }
    }
    out
  }
}
