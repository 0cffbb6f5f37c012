package repro.core.linalg

/** Minimal dense row-major matrix.
  *
  * This is both (a) the substrate for the EM updates (whose intermediates
  * are small, `m x m`), and (b) the "Lapack/Matlab" stand-in used by the
  * naive baselines that materialize the full feature matrix (the paper
  * benchmarks against Lapack-backed Matlab; no native BLAS is available
  * offline, so a cache-friendly ikj kernel plays that role — both sides of
  * every comparison use the same kernel, so relative shape is preserved).
  */
final class Mat(val rows: Int, val cols: Int, val a: Array[Double]) {
  require(a.length == rows * cols, s"bad backing array: ${a.length} != $rows*$cols")

  @inline def apply(i: Int, j: Int): Double = a(i * cols + j)
  @inline def update(i: Int, j: Int, v: Double): Unit = a(i * cols + j) = v

  def copy: Mat = new Mat(rows, cols, a.clone())

  /** Transpose. */
  def t: Mat = {
    val out = new Array[Double](rows * cols)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { out(j * rows + i) = a(i * cols + j); j += 1 }; i += 1 }
    new Mat(cols, rows, out)
  }

  /** Dense product, ikj order for cache locality. */
  def *(o: Mat): Mat = {
    require(cols == o.rows, s"shape mismatch: ${rows}x$cols * ${o.rows}x${o.cols}")
    val out = new Array[Double](rows * o.cols)
    var i = 0
    while (i < rows) {
      var k = 0
      while (k < cols) {
        val v = a(i * cols + k)
        if (v != 0.0) {
          val ob = k * o.cols; val rb = i * o.cols
          var j = 0
          while (j < o.cols) { out(rb + j) += v * o.a(ob + j); j += 1 }
        }
        k += 1
      }
      i += 1
    }
    new Mat(rows, o.cols, out)
  }

  /** Matrix-vector product. */
  def mv(x: Array[Double]): Array[Double] = {
    require(x.length == cols, s"mv shape mismatch: $cols vs ${x.length}")
    val out = new Array[Double](rows)
    var i = 0
    while (i < rows) {
      var s = 0.0; var j = 0; val b = i * cols
      while (j < cols) { s += a(b + j) * x(j); j += 1 }
      out(i) = s; i += 1
    }
    out
  }

  /** Transposed matrix-vector product: `this^T * x`. */
  def tmv(x: Array[Double]): Array[Double] = {
    require(x.length == rows, s"tmv shape mismatch: $rows vs ${x.length}")
    val out = new Array[Double](cols)
    var i = 0
    while (i < rows) {
      val v = x(i)
      if (v != 0.0) { val b = i * cols; var j = 0; while (j < cols) { out(j) += v * a(b + j); j += 1 } }
      i += 1
    }
    out
  }

  def +(o: Mat): Mat = zip(o)(_ + _)
  def -(o: Mat): Mat = zip(o)(_ - _)
  def *(s: Double): Mat = { val out = a.clone(); var i = 0; while (i < out.length) { out(i) *= s; i += 1 }; new Mat(rows, cols, out) }

  private def zip(o: Mat)(f: (Double, Double) => Double): Mat = {
    require(rows == o.rows && cols == o.cols, "shape mismatch")
    val out = new Array[Double](a.length)
    var i = 0; while (i < a.length) { out(i) = f(a(i), o.a(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def trace: Double = {
    require(rows == cols, "trace of non-square")
    var s = 0.0; var i = 0; while (i < rows) { s += a(i * cols + i); i += 1 }; s
  }

  def maxAbsDiff(o: Mat): Double = {
    require(rows == o.rows && cols == o.cols, "shape mismatch")
    var m = 0.0; var i = 0
    while (i < a.length) { val d = math.abs(a(i) - o.a(i)); if (d > m) m = d; i += 1 }
    m
  }

  /** Gauss-Jordan inverse with partial pivoting. Throws on singularity. */
  def inverse: Mat = Mat.inverse(this)

  override def toString: String = {
    val sb = new StringBuilder(s"Mat(${rows}x$cols)\n")
    for (i <- 0 until math.min(rows, 8)) {
      sb.append((0 until math.min(cols, 8)).map(j => f"${apply(i, j)}%10.4f").mkString(" ")).append('\n')
    }
    sb.toString
  }
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def eye(n: Int): Mat = {
    val m = zeros(n, n); var i = 0; while (i < n) { m(i, i) = 1.0; i += 1 }; m
  }

  def fromRows(rs: Seq[Seq[Double]]): Mat = {
    require(rs.nonEmpty, "empty matrix")
    val cols = rs.head.size
    require(rs.forall(_.size == cols), "ragged rows")
    new Mat(rs.size, cols, rs.flatten.toArray)
  }

  def colVec(v: Array[Double]): Mat = new Mat(v.length, 1, v.clone())

  /** Outer product v * v^T. */
  def outer(v: Array[Double]): Mat = {
    val n = v.length; val out = new Array[Double](n * n)
    var i = 0
    while (i < n) { var j = 0; while (j < n) { out(i * n + j) = v(i) * v(j); j += 1 }; i += 1 }
    new Mat(n, n, out)
  }

  /** Gauss-Jordan with partial pivoting. Throws on singularity. */
  def inverse(m: Mat): Mat = {
    val r = inverseOrNull(m)
    if (r == null) throw new ArithmeticException("singular matrix")
    r
  }

  /** Exception-free variant for the EM hot loop (one inverse per cluster
    * per iteration): returns null on a near-zero pivot so callers can
    * escalate the ridge without paying exception-raising costs.
    */
  private def inverseOrNull(m: Mat): Mat = {
    require(m.rows == m.cols, "inverse of non-square")
    val n = m.rows
    val w = m.a.clone()
    val inv = eye(n).a
    if (eliminate(w, inv, n)) new Mat(n, n, inv) else null
  }

  /** In-place Gauss-Jordan: destroys `w`, writes the inverse into `inv`
    * (which must be pre-set to the identity). Returns false on a pivot
    * below 1e-13 of `w`'s largest entry, so scaling `w` never changes the
    * outcome. Allocation-free — the dense EM baseline calls this once per
    * cluster per iteration.
    */
  def eliminate(w: Array[Double], inv: Array[Double], n: Int): Boolean = !eliminateLogDet(w, inv, n).isNaN

  /** `eliminate`, returning log |det w| from its pivots (one `log` per
    * call), or NaN where `eliminate` returns false.
    */
  def eliminateLogDet(w: Array[Double], inv: Array[Double], n: Int): Double = {
    var maxAbs = 0.0
    var k = 0
    while (k < n * n) { val v = math.abs(w(k)); if (v > maxAbs) maxAbs = v; k += 1 }
    val tiny = 1e-13 * maxAbs
    // The pivots' product, folded into its log whenever it leaves
    // [1e-200, 1e200]: no overflow, and one log for a well-scaled matrix.
    var det = 1.0
    var logDet = 0.0
    var col = 0
    while (col < n) {
      // pivot
      var p = col; var best = math.abs(w(col * n + col))
      var r = col + 1
      while (r < n) { val v = math.abs(w(r * n + col)); if (v > best) { best = v; p = r }; r += 1 }
      if (!(best > tiny)) return Double.NaN
      if (p != col) { swapRows(w, n, p, col); swapRows(inv, n, p, col) }
      det *= best
      if (!(det >= 1e-200 && det <= 1e200)) { logDet += math.log(det); det = 1.0 }
      val piv = w(col * n + col)
      var j = 0
      while (j < n) { w(col * n + j) /= piv; inv(col * n + j) /= piv; j += 1 }
      r = 0
      while (r < n) {
        if (r != col) {
          val f = w(r * n + col)
          if (f != 0.0) {
            var j = 0
            while (j < n) { w(r * n + j) -= f * w(col * n + j); inv(r * n + j) -= f * inv(col * n + j); j += 1 }
          }
        }
        r += 1
      }
      col += 1
    }
    logDet + math.log(det)
  }

  /** Inverse with a small ridge on the diagonal — collinear feature columns
    * (e.g. an intercept plus a near-constant main effect) otherwise make the
    * gram matrix singular. The ridge is relative to the matrix
    * (`ridgeScale`), so `ridgeInverse(c * m) = ridgeInverse(m) / c`.
    */
  def ridgeInverse(m: Mat, eps: Double): Mat = {
    require(m.rows == m.cols, "inverse of non-square")
    val n = m.rows
    var lambda = math.max(eps, 1e-12) * ridgeScale(m.a, n)
    var attempt = 0
    while (attempt < 6) {
      val r = inverseOrNull(m + (eye(n) * lambda))
      if (r != null) return r
      lambda *= 1e3
      attempt += 1
    }
    throw new ArithmeticException(s"matrix not invertible even with ridge $lambda")
  }

  /** Inverse with a ridge relative to each diagonal entry (to `ridgeScale`
    * where an entry is zero), for a gram matrix of feature columns in
    * arbitrary units. With D that diagonal it inverts
    * D^{1/2} (S + lambda I) D^{1/2}, S = D^{-1/2} m D^{-1/2}, eliminating on
    * S, whose unit diagonal keeps the pivot test free of the columns'
    * scales. So for a positive diagonal E,
    * `scaledRidgeInverse(E m E) = E^-1 scaledRidgeInverse(m) E^-1`: scaling
    * a feature column scales its coefficient and nothing else. With
    * `ridgeInverse`'s ridge, relative to the mean diagonal, main effects
    * nearly collinear with the intercept moved the predictions of a
    * ranking by 2e-3 relative when the measure, and so the main effects,
    * was scaled by 1e-3.
    */
  def scaledRidgeInverse(m: Mat, eps: Double): Mat = {
    require(m.rows == m.cols, "inverse of non-square")
    val n = m.rows
    val zeroScale = ridgeScale(m.a, n)
    val sq = Array.tabulate(n) { d => val v = math.abs(m.a(d * n + d)); math.sqrt(if (v > 0) v else zeroScale) }
    var lambda = math.max(eps, 1e-12)
    var attempt = 0
    while (attempt < 6) {
      val w = Array.tabulate(n * n)(k => m.a(k) / (sq(k / n) * sq(k % n)))
      var d = 0
      while (d < n) { w(d * n + d) += lambda; d += 1 }
      val inv = eye(n).a
      if (eliminate(w, inv, n)) {
        var k = 0
        while (k < n * n) { inv(k) /= sq(k / n) * sq(k % n); k += 1 }
        return new Mat(n, n, inv)
      }
      lambda *= 1e3
      attempt += 1
    }
    throw new ArithmeticException(s"matrix not invertible even with ridge $lambda")
  }

  /** The magnitude a ridge on the n x n matrix `a` is relative to: the
    * mean absolute diagonal entry, or 1 for a zero diagonal.
    */
  def ridgeScale(a: Array[Double], n: Int): Double = {
    var diag = 0.0
    var d = 0
    while (d < n) { diag += math.abs(a(d * n + d)); d += 1 }
    if (diag > 0) diag / n else 1.0
  }

  /** log |det m| (`eliminateLogDet` on a copy); NaN if m is singular to
    * working precision.
    */
  def logDet(m: Mat): Double = {
    require(m.rows == m.cols, "logDet of non-square")
    eliminateLogDet(m.a.clone(), eye(m.rows).a, m.rows)
  }

  private def swapRows(a: Array[Double], n: Int, r1: Int, r2: Int): Unit = {
    val b1 = r1 * n; val b2 = r2 * n
    var j = 0
    while (j < n) { val t = a(b1 + j); a(b1 + j) = a(b2 + j); a(b2 + j) = t; j += 1 }
  }

  /** The rows laid end to end in one array. */
  def concat(rows: Array[Array[Double]]): Array[Double] = {
    val out = new Array[Double](rows.map(_.length).sum)
    var off = 0
    rows.foreach { r => System.arraycopy(r, 0, out, off, r.length); off += r.length }
    out
  }

  def dot(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, "dot shape mismatch")
    var s = 0.0; var i = 0; while (i < x.length) { s += x(i) * y(i); i += 1 }; s
  }
}
