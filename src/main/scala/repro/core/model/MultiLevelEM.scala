package repro.core.model

import repro.core.linalg.Mat

/** Fitted multi-level model (Section 3.2 / Appendix D):
  *   y_i = X_i beta + Z_i b_i + eps_i,  b_i ~ N(0, Sigma), eps ~ N(0, s2 I)
  * with Z_i = X_i[:, reCols] — the paper's tunable random-effect matrix
  * (Section 3.3.4); `reCols` defaults to all columns (Z_i = X_i).
  */
final case class MultiLevelFit(
    beta: Array[Double],
    sigma: Mat,
    sigma2: Double,
    bs: Array[Array[Double]],
    reCols: Array[Int],
    iterations: Int,
)

/** EM training for the multi-level linear model over any MLBackend.
  *
  * The loop is a straight transcription of Appendix D; all interactions
  * with the feature matrix go through the backend's six matrix-operation
  * primitives, so the same code trains over the factorised representation
  * and over the materialized matrix. Restricting the random effects to a
  * column subset S needs no extra backend support: Z_i^T v is the S-slice
  * of X_i^T v, Z_i b is X_i b' with b' zero-padded outside S, and
  * Z_i^T Z_i is the S x S submatrix of the cluster gram.
  */
object MultiLevelEM {

  def fit(
      bk: MLBackend,
      y: Array[Double],
      iters: Int = 20,
      ridge: Double = 1e-8,
      reCols: Option[Array[Int]] = None,
  ): MultiLevelFit = {
    require(y.length == bk.n, s"y length ${y.length} != n ${bk.n}")
    val m = bk.m
    val g = bk.numClusters
    val re: Array[Int] = reCols.getOrElse(Array.range(0, m))
    require(re.forall(j => j >= 0 && j < m), "bad random-effect column index")
    val s = re.length

    // Precomputed once: X^T X (+ inverse) and per-cluster Z^T Z grams.
    val gram = bk.gram
    val gramInv = Mat.ridgeInverse(gram, ridge)
    val clusterGrams = new Array[Mat](g)
    bk.foreachClusterGram((i, xtxi) => clusterGrams(i) = submatrix(xtxi, re))

    // Init: OLS beta; residual variance; Sigma = sigma2 * I.
    var beta = gramInv.mv(bk.xtv(y))
    var resid = sub(y, bk.xv(beta))
    var sigma2 = math.max(meanSq(resid), 1e-9)
    var sigma = Mat.eye(s) * sigma2
    var bs = Array.fill(g)(new Array[Double](s))

    val est = new ClusterEStep(s, re, ridge)

    var it = 0
    while (it < iters) {
      // E-step (accumulates the M-step's Sigma and trace terms on the fly)
      val sigmaInv = Mat.ridgeInverse(sigma, ridge)
      resid = sub(y, bk.xv(beta))
      val xtr = bk.clusterXtv(resid) // X_i^T (y_i - X_i beta); slice to Z columns
      val newBs = new Array[Array[Double]](g)
      val sigAcc = new Array[Double](s * s)
      var trAcc = 0.0
      var i = 0
      while (i < g) {
        trAcc += est.run(clusterGrams(i).a, xtr(i), sigma2, sigmaInv.a, sigAcc)
        newBs(i) = est.mu.clone()
        i += 1
      }
      bs = newBs

      // M-step
      val zb = bk.clusterXa(bs.map(pad(_, re, m)))
      beta = gramInv.mv(bk.xtv(sub(y, zb)))
      sigma = new Mat(s, s, sigAcc.map(_ / g))
      val r = sub(y, bk.xv(beta))
      val rr = Mat.dot(r, r)
      val rzb = Mat.dot(r, zb)
      sigma2 = math.max((rr + trAcc - 2.0 * rzb) / bk.n, 1e-12)
      it += 1
    }
    MultiLevelFit(beta, sigma, sigma2, bs, re, iters)
  }

  /** yhat = X beta + Z b (fixed + random effects). */
  def predict(bk: MLBackend, fit: MultiLevelFit): Array[Double] = {
    val fixed = bk.xv(fit.beta)
    val rand = bk.clusterXa(fit.bs.map(pad(_, fit.reCols, bk.m)))
    add(fixed, rand)
  }

  /** Marginal Gaussian log-likelihood: per cluster,
    * y_i ~ N(X_i beta, Z_i Sigma Z_i^T + sigma2 I). Used for AIC.
    */
  def logLikelihood(bk: MLBackend, y: Array[Double], fit: MultiLevelFit): Double = {
    var ll = 0.0
    var i = 0
    while (i < bk.numClusters) {
      val (s, l) = bk.clusterRanges(i)
      val xi = bk.clusterMat(i)
      val zi = subcolumns(xi, fit.reCols)
      val v = (zi * fit.sigma) * zi.t + (Mat.eye(l) * fit.sigma2)
      val mu = xi.mv(fit.beta)
      val r = Array.tabulate(l)(k => y(s + k) - mu(k))
      val vinv = Mat.ridgeInverse(v, 1e-10)
      val quad = Mat.dot(r, vinv.mv(r))
      ll += -0.5 * (l * math.log(2 * math.Pi) + Mat.logDet(v) + quad)
      i += 1
    }
    ll
  }

  /** AIC = 2k - 2 lnL; k = fixed effects + Sigma parameters + sigma2. */
  def aic(bk: MLBackend, y: Array[Double], fit: MultiLevelFit): Double = {
    val s = fit.reCols.length
    val k = bk.m + s * (s + 1) / 2 + 1
    2.0 * k - 2.0 * logLikelihood(bk, y, fit)
  }

  // ------------------------------------------------------------- helpers
  private def submatrix(mt: Mat, idx: Array[Int]): Mat = {
    val s = idx.length
    val out = Mat.zeros(s, s)
    var i = 0
    while (i < s) { var j = 0; while (j < s) { out(i, j) = mt(idx(i), idx(j)); j += 1 }; i += 1 }
    out
  }
  private def subcolumns(mt: Mat, idx: Array[Int]): Mat = {
    val out = Mat.zeros(mt.rows, idx.length)
    var i = 0
    while (i < mt.rows) { var j = 0; while (j < idx.length) { out(i, j) = mt(i, idx(j)); j += 1 }; i += 1 }
    out
  }
  private def pad(b: Array[Double], idx: Array[Int], m: Int): Array[Double] = {
    val out = new Array[Double](m)
    var i = 0
    while (i < idx.length) { out(idx(i)) = b(i); i += 1 }
    out
  }
  private def sub(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0; while (i < a.length) { out(i) = a(i) - b(i); i += 1 }; out
  }
  private def add(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0; while (i < a.length) { out(i) = a(i) + b(i); i += 1 }; out
  }
  private def meanSq(a: Array[Double]): Double = {
    var s = 0.0; var i = 0; while (i < a.length) { s += a(i) * a(i); i += 1 }; s / math.max(a.length, 1)
  }
}

/** The E-step for one cluster: the posterior mean `mu` and covariance of
  * its random effects, folded into the M-step's Sigma accumulator. A
  * method of its own, called once per cluster per iteration, so the JIT
  * compiles it after a few thousand clusters rather than waiting for an
  * on-stack replacement of the whole EM loop. The scratch buffers are
  * reused across calls: allocating fresh matrices here dominates EM
  * runtime with tens of thousands of clusters.
  */
private final class ClusterEStep(s: Int, re: Array[Int], ridge: Double) {
  private val wBuf = new Array[Double](s * s)
  private val vBuf = new Array[Double](s * s)
  private val bbtBuf = new Array[Double](s * s)
  /** The last cluster's posterior mean. */
  val mu = new Array[Double](s)

  /** `gi` is the cluster's Z^T Z, `xtr` its X^T r; adds V + mu mu^T to
    * `sigAcc` and returns Tr(G_i (V + mu mu^T)).
    */
  def run(gi: Array[Double], xtr: Array[Double], sigma2: Double, sigmaInv: Array[Double],
          sigAcc: Array[Double]): Double = {
    // wBuf := G_i / sigma2 + Sigma^{-1} (+ escalating ridge on failure)
    val scale = {
      var t = 0.0; var d = 0
      while (d < s) { t += math.abs(gi(d * s + d) / sigma2 + sigmaInv(d * s + d)); d += 1 }
      math.max(t / s, 1.0)
    }
    var lambda = math.max(ridge, 1e-12) * scale
    var ok = false
    var attempt = 0
    while (!ok && attempt < 6) {
      var k = 0
      while (k < s * s) { wBuf(k) = gi(k) / sigma2 + sigmaInv(k); k += 1 }
      var d = 0
      while (d < s) { wBuf(d * s + d) += lambda; d += 1 }
      java.util.Arrays.fill(vBuf, 0.0)
      d = 0
      while (d < s) { vBuf(d * s + d) = 1.0; d += 1 }
      ok = Mat.eliminate(wBuf, vBuf, s)
      lambda *= 1e3
      attempt += 1
    }
    require(ok, "cluster covariance not invertible")
    // mu_i = V_i (X_i^T r_i) / sigma2
    var j = 0
    while (j < s) {
      var acc = 0.0
      var k = 0
      while (k < s) { acc += vBuf(j * s + k) * xtr(re(k)); k += 1 }
      mu(j) = acc / sigma2
      j += 1
    }
    // bbt_i = V_i + mu mu^T; fold into Sigma and trace accumulators
    j = 0
    while (j < s) {
      var k = 0
      while (k < s) {
        val bbt = vBuf(j * s + k) + mu(j) * mu(k)
        bbtBuf(j * s + k) = bbt
        sigAcc(j * s + k) += bbt
        k += 1
      }
      j += 1
    }
    // Tr(G_i bbt_i) = sum_{jk} G_i[j,k] * bbt[k,j] (both symmetric)
    var t = 0.0
    var k = 0
    while (k < s * s) { t += gi(k) * bbtBuf(k); k += 1 }
    t
  }
}

/** Ordinary least squares over a backend — the paper's "Naive Approach"
  * linear model (Section 3.2) and the Linear/Linear-f rows of Figure 16.
  */
object LinearModel {
  final case class LinearFit(beta: Array[Double], sigma2: Double)

  def fit(bk: MLBackend, y: Array[Double], ridge: Double = 1e-8): LinearFit = {
    val beta = Mat.ridgeInverse(bk.gram, ridge).mv(bk.xtv(y))
    val pred = bk.xv(beta)
    var rss = 0.0
    var i = 0
    while (i < y.length) { val d = y(i) - pred(i); rss += d * d; i += 1 }
    LinearFit(beta, math.max(rss / math.max(y.length, 1), 1e-12))
  }

  def predict(bk: MLBackend, fit: LinearFit): Array[Double] = bk.xv(fit.beta)

  def logLikelihood(bk: MLBackend, y: Array[Double], fit: LinearFit): Double = {
    val pred = bk.xv(fit.beta)
    var rss = 0.0
    var i = 0
    while (i < y.length) { val d = y(i) - pred(i); rss += d * d; i += 1 }
    val n = y.length
    -0.5 * n * (math.log(2 * math.Pi * fit.sigma2) + rss / (n * fit.sigma2))
  }

  def aic(bk: MLBackend, y: Array[Double], fit: LinearFit): Double =
    2.0 * (bk.m + 1) - 2.0 * logLikelihood(bk, y, fit)
}
